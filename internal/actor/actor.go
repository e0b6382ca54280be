// Package actor implements the actor-model runtime the maritime
// forecasting pipeline is built on, playing the role Akka plays in the
// paper: lightweight isolated actors, asynchronous message passing,
// supervision with restarts, dead letters, an event stream and
// request/response futures.
//
// The runtime uses dispatcher-style scheduling rather than one parked
// goroutine per actor: each actor owns a multi-producer mailbox and an
// atomic run state, and a goroutine is only active while the mailbox is
// non-empty. That keeps hundreds of thousands of mostly-idle vessel
// actors cheap — the property the paper's scalability evaluation
// (Figure 6, 170K live actors) depends on.
//
// Typical use:
//
//	sys := actor.NewSystem("seatwin")
//	pid := sys.Spawn(actor.PropsOf(func(c *actor.Context) {
//	        switch msg := c.Message().(type) {
//	        case string:
//	                c.Respond("got " + msg)
//	        }
//	}))
//	reply, err := sys.Ask(pid, "hello", time.Second)
package actor

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Actor is the behaviour of an actor: it is invoked once per message
// with a Context carrying the message, the sender and the runtime.
// Receive is never invoked concurrently for the same actor instance.
type Actor interface {
	Receive(c *Context)
}

// ReceiveFunc adapts a plain function to the Actor interface.
type ReceiveFunc func(c *Context)

// Receive implements Actor.
func (f ReceiveFunc) Receive(c *Context) { f(c) }

// Lifecycle messages delivered to actors by the runtime.
type (
	// Started is the first message an actor receives, before any user
	// message, and again after each restart.
	Started struct{}
	// Stopping is delivered when a stop has been requested, before the
	// children are stopped.
	Stopping struct{}
	// Stopped is the last message an actor receives.
	Stopped struct{}
	// Restarting is delivered before the actor instance is replaced
	// after a panic.
	Restarting struct{ Reason any }
)

// PID identifies a running actor. PIDs are cheap to copy and safe to
// share across goroutines; sending to a stopped actor's PID routes the
// message to dead letters.
type PID struct {
	id      uint64
	name    string
	process *process
}

// Name returns the actor's registered name (possibly auto-generated).
func (p *PID) Name() string {
	if p == nil {
		return "<nil>"
	}
	return p.name
}

// String implements fmt.Stringer.
func (p *PID) String() string {
	if p == nil {
		return "pid://<nil>"
	}
	return fmt.Sprintf("pid://%s/%d", p.name, p.id)
}

// Alive reports whether the actor behind the PID is still running.
func (p *PID) Alive() bool {
	return p != nil && p.process != nil && atomic.LoadInt32(&p.process.dead) == 0
}

// envelope carries one message and its sender through a mailbox.
type envelope struct {
	message any
	sender  *PID
}

// system-internal control messages (processed ahead of user messages).
type (
	sysStarted struct{}
	sysStop    struct{}
)

// poisonPill travels the user lane so every message enqueued before it
// is processed first; receiving it stops the actor (System.Poison).
type poisonPill struct{}

// Deadline errors for Ask.
var (
	// ErrTimeout is returned by Ask when no reply arrives in time.
	ErrTimeout = fmt.Errorf("actor: ask timed out")
	// ErrDeadLetter is returned by Ask when the target is not alive.
	ErrDeadLetter = fmt.Errorf("actor: target is stopped")
)

// DeadLetter is published on the system event stream whenever a message
// cannot be delivered.
type DeadLetter struct {
	Target  *PID
	Message any
	Sender  *PID
	At      time.Time
}
