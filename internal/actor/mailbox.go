package actor

import (
	"sync"
	"sync/atomic"
)

// mailbox is an unbounded multi-producer single-consumer queue with two
// lanes: system messages (lifecycle and control) overtake user messages.
// It is paired with an atomic scheduler state so an idle actor consumes
// no goroutine.
//
// The queue is a mutex-protected pair of slices swapped wholesale by the
// consumer; producers only ever append. This "swap the write buffer"
// scheme keeps the common enqueue path to one lock/append and amortizes
// consumer locking to once per drained batch, which benchmarks faster
// than channels for the bursty fan-in pattern of AIS ingestion.
type mailbox struct {
	mu       sync.Mutex
	userW    []envelope // producers append here
	userR    []envelope // consumer drains here
	userRPos int
	sysW     []any
	sysR     []any
	sysRPos  int

	// scheduler state: 0 idle, 1 running/scheduled
	scheduled int32

	length int64 // total queued user messages, for metrics/backpressure

	// recentPeak is a decaying maximum of recent swap batch sizes, used
	// to release buffer capacity left over from a burst (see popUser).
	recentPeak int
}

// Buffer-shrink tuning: after a burst drains, the swapped-out write
// buffer keeps the burst's capacity forever. Across ~170K mostly-idle
// vessel actors that retained slack is unbounded, so when a buffer's
// capacity exceeds shrinkFactor times the decayed recent batch peak it
// is dropped and the next push reallocates at the current demand.
// Buffers at or under shrinkMinCap are always kept.
const (
	shrinkMinCap = 256
	shrinkFactor = 4
)

func newMailbox() *mailbox {
	return &mailbox{}
}

// pushUser enqueues a user envelope and returns the new queue length.
func (m *mailbox) pushUser(e envelope) int64 {
	m.mu.Lock()
	m.userW = append(m.userW, e)
	m.mu.Unlock()
	return atomic.AddInt64(&m.length, 1)
}

// pushUserBatch enqueues every message as an envelope from one sender
// under a single lock acquisition — the batched delivery path ingestion
// uses to pay mailbox lock and schedule cost once per vessel per poll
// round instead of once per report.
func (m *mailbox) pushUserBatch(msgs []any, sender *PID) int64 {
	m.mu.Lock()
	for _, msg := range msgs {
		m.userW = append(m.userW, envelope{message: msg, sender: sender})
	}
	m.mu.Unlock()
	return atomic.AddInt64(&m.length, int64(len(msgs)))
}

// pushSystem enqueues a control message.
func (m *mailbox) pushSystem(msg any) {
	m.mu.Lock()
	m.sysW = append(m.sysW, msg)
	m.mu.Unlock()
}

// popSystem dequeues the next control message, if any.
func (m *mailbox) popSystem() (any, bool) {
	if m.sysRPos < len(m.sysR) {
		msg := m.sysR[m.sysRPos]
		m.sysR[m.sysRPos] = nil
		m.sysRPos++
		return msg, true
	}
	m.mu.Lock()
	if len(m.sysW) == 0 {
		m.mu.Unlock()
		return nil, false
	}
	m.sysR, m.sysW = m.sysW, m.sysR[:0]
	m.mu.Unlock()
	m.sysRPos = 1
	return m.sysR[0], true
}

// popUser dequeues the next user envelope, if any.
func (m *mailbox) popUser() (envelope, bool) {
	if m.userRPos < len(m.userR) {
		e := m.userR[m.userRPos]
		m.userR[m.userRPos] = envelope{}
		m.userRPos++
		atomic.AddInt64(&m.length, -1)
		return e, true
	}
	m.mu.Lock()
	if len(m.userW) == 0 {
		m.mu.Unlock()
		return envelope{}, false
	}
	m.userR, m.userW = m.userW, m.userR[:0]
	// Track the decayed batch-size peak and release a write buffer whose
	// capacity greatly exceeds it: one burst must not pin its high-water
	// capacity on an actor that has gone back to a trickle.
	if n := len(m.userR); n > m.recentPeak {
		m.recentPeak = n
	} else {
		m.recentPeak -= m.recentPeak / 4
	}
	if c := cap(m.userW); c > shrinkMinCap && c > shrinkFactor*m.recentPeak {
		m.userW = nil
	}
	m.mu.Unlock()
	m.userRPos = 1
	atomic.AddInt64(&m.length, -1)
	return m.userR[0], true
}

// buffered reports whether the consumer's read buffers still hold
// messages. Only the goroutine holding the schedule token may call it.
func (m *mailbox) buffered() bool {
	return m.userRPos < len(m.userR) || m.sysRPos < len(m.sysR)
}

// pending reports whether producers have queued messages the consumer
// has not swapped in yet. Safe from any goroutine.
func (m *mailbox) pending() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.userW) > 0 || len(m.sysW) > 0
}

// Len returns the number of queued user messages.
func (m *mailbox) Len() int64 { return atomic.LoadInt64(&m.length) }

// trySchedule transitions idle -> scheduled and reports whether the
// caller must start a processing run.
func (m *mailbox) trySchedule() bool {
	return atomic.CompareAndSwapInt32(&m.scheduled, 0, 1)
}

// setIdle marks the mailbox idle; the next push will reschedule.
func (m *mailbox) setIdle() { atomic.StoreInt32(&m.scheduled, 0) }
