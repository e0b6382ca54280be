package actor

import (
	"sync"
	"sync/atomic"
	"time"
)

// process is the runtime representation of one actor: its mailbox, the
// current behaviour instance and its supervision bookkeeping.
type process struct {
	system *System
	pid    *PID
	props  *Props
	mb     *mailbox

	actor Actor // current instance; replaced on restart

	dead int32 // 1 once Stopped has been delivered

	childMu  sync.Mutex
	children map[*PID]struct{}
	parent   *PID

	restartMu    sync.Mutex
	restartTimes []time.Time

	stopping int32
	done     chan struct{} // closed when the actor is fully stopped

	// ctx is reused for every delivery to this process. Deliveries are
	// serial (user invokes, lifecycle invokes and doStop all run on the
	// goroutine holding the mailbox schedule token), and a Context is
	// documented as valid only for the duration of its Receive call, so
	// one struct per process replaces one heap allocation per message.
	ctx Context
}

func (p *process) sendUser(e envelope) {
	if atomic.LoadInt32(&p.dead) == 1 {
		p.system.deadLetter(p.pid, e.message, e.sender)
		return
	}
	p.mb.pushUser(e)
	p.schedule()
}

// sendUserBatch enqueues msgs in order with one mailbox lock and one
// schedule transition. A target found dead routes the whole batch to
// dead letters, matching sendUser.
func (p *process) sendUserBatch(msgs []any, sender *PID) {
	if atomic.LoadInt32(&p.dead) == 1 {
		for _, msg := range msgs {
			p.system.deadLetter(p.pid, msg, sender)
		}
		return
	}
	p.mb.pushUserBatch(msgs, sender)
	p.schedule()
}

func (p *process) sendSystem(msg any) {
	if atomic.LoadInt32(&p.dead) == 1 {
		return
	}
	p.mb.pushSystem(msg)
	p.schedule()
}

func (p *process) schedule() {
	if p.mb.trySchedule() {
		go p.run()
	}
}

// run drains the mailbox until it is empty, yielding the schedule token
// between batches so one hot actor cannot starve the scheduler.
func (p *process) run() {
	for {
		p.processBatch()
		// The read buffers belong to whichever goroutine holds the
		// schedule token, so they are inspected before setIdle hands it
		// back; afterwards only the producer-shared write buffers (under
		// the mailbox lock) may be read.
		buffered := p.mb.buffered()
		p.mb.setIdle()
		if !buffered && !p.mb.pending() {
			return
		}
		// Work is left (the batch hit its throughput limit, or a push
		// landed before setIdle): try to take the mailbox back. Losing
		// the race means another goroutine has it.
		if !p.mb.trySchedule() {
			return
		}
	}
}

func (p *process) processBatch() {
	throughput := p.props.throughput
	if throughput <= 0 {
		throughput = p.system.throughput
	}
	for i := 0; i < throughput; i++ {
		if msg, ok := p.mb.popSystem(); ok {
			p.handleSystem(msg)
			continue
		}
		if atomic.LoadInt32(&p.dead) == 1 {
			// A sender that saw the actor alive can push after doStop's
			// flush; its schedule lands here, so the message is
			// dead-lettered instead of stranded.
			p.flushDeadLetters()
			return
		}
		e, ok := p.mb.popUser()
		if !ok {
			return
		}
		p.invoke(e)
	}
}

func (p *process) handleSystem(msg any) {
	switch msg.(type) {
	case sysStarted:
		p.invokeLifecycle(Started{})
	case sysStop:
		p.doStop()
	}
}

// invoke delivers one user envelope to the behaviour, converting panics
// into supervision decisions.
func (p *process) invoke(e envelope) {
	if _, ok := e.message.(poisonPill); ok {
		p.doStop()
		return
	}
	defer func() {
		if r := recover(); r != nil {
			p.handleFailure(r, e)
		}
	}()
	p.ctx = Context{system: p.system, process: p, self: p.pid, sender: e.sender, message: e.message}
	p.actor.Receive(&p.ctx)
	atomic.AddUint64(&p.system.stats.MessagesProcessed, 1)
}

// invokeLifecycle delivers a lifecycle message, swallowing panics (a
// panic during Stopped must not prevent the stop from completing).
func (p *process) invokeLifecycle(msg any) {
	defer func() {
		if r := recover(); r != nil {
			p.system.events.Publish(FailureEvent{PID: p.pid, Reason: r, Lifecycle: true})
		}
	}()
	p.ctx = Context{system: p.system, process: p, self: p.pid, message: msg}
	p.actor.Receive(&p.ctx)
}

// FailureEvent is published on the event stream when an actor panics.
type FailureEvent struct {
	PID       *PID
	Reason    any
	Message   any  // the message being processed, nil for lifecycle
	Lifecycle bool // true when the panic happened in a lifecycle handler
}

func (p *process) handleFailure(reason any, e envelope) {
	atomic.AddUint64(&p.system.stats.Failures, 1)
	p.system.events.Publish(FailureEvent{PID: p.pid, Reason: reason, Message: e.message})

	switch p.props.strategy.Directive {
	case DirectiveResume:
		return // drop the failing message, keep state
	case DirectiveStop:
		p.doStop()
		return
	case DirectiveRestart:
		if p.restartBudgetExceeded() {
			p.doStop()
			return
		}
		p.invokeLifecycle(Restarting{Reason: reason})
		p.actor = p.props.producer()
		atomic.AddUint64(&p.system.stats.Restarts, 1)
		p.invokeLifecycle(Started{})
	}
}

func (p *process) restartBudgetExceeded() bool {
	s := p.props.strategy
	if s.MaxRestarts <= 0 {
		return false
	}
	p.restartMu.Lock()
	defer p.restartMu.Unlock()
	now := time.Now()
	if s.WindowSeconds > 0 {
		cutoff := now.Add(-time.Duration(s.WindowSeconds) * time.Second)
		keep := p.restartTimes[:0]
		for _, t := range p.restartTimes {
			if t.After(cutoff) {
				keep = append(keep, t)
			}
		}
		p.restartTimes = keep
	}
	p.restartTimes = append(p.restartTimes, now)
	return len(p.restartTimes) > s.MaxRestarts
}

// doStop runs the stop sequence inline on the processing goroutine:
// Stopping -> stop children -> Stopped -> unregister + dead-letter the
// remaining queue.
func (p *process) doStop() {
	if !atomic.CompareAndSwapInt32(&p.stopping, 0, 1) {
		return
	}
	p.invokeLifecycle(Stopping{})

	p.childMu.Lock()
	kids := make([]*PID, 0, len(p.children))
	for kid := range p.children {
		kids = append(kids, kid)
	}
	p.children = nil
	p.childMu.Unlock()
	for _, kid := range kids {
		p.system.Stop(kid)
	}

	p.invokeLifecycle(Stopped{})
	atomic.StoreInt32(&p.dead, 1)
	p.system.unregister(p.pid)
	atomic.AddUint64(&p.system.stats.ActorsStopped, 1)

	p.flushDeadLetters()
	close(p.done)
}

// flushDeadLetters routes every queued user envelope to dead letters.
// It runs on the processing goroutine (the mailbox's single consumer).
func (p *process) flushDeadLetters() {
	for {
		e, ok := p.mb.popUser()
		if !ok {
			return
		}
		p.system.deadLetter(p.pid, e.message, e.sender)
	}
}

func (p *process) addChild(kid *PID) {
	p.childMu.Lock()
	if p.children == nil {
		p.children = make(map[*PID]struct{})
	}
	p.children[kid] = struct{}{}
	p.childMu.Unlock()
}
