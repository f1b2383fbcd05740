package sim

import (
	"errors"
	"time"
)

// ErrTimeout is returned by Waiter.Wait and Semaphore.Acquire when the
// virtual-time timeout elapses before the awaited condition occurs.
var ErrTimeout = errors.New("sim: timeout")

// Waiter is a one-shot rendezvous between a simulated goroutine and an
// event callback. Deliver may happen before or after Wait; only the first
// Deliver counts, and a Deliver that loses the race against a timeout is
// reported to the deliverer so it can redirect the value.
//
// The zero Waiter is usable after Bind, which lets callers embed a Waiter
// by value inside a larger call-context struct (one allocation instead of
// two on RPC hot paths).
type Waiter struct {
	s         *Scheduler
	val       any
	p         *parker // set while a goroutine is parked in Wait
	tev       *event  // pending timeout event, disarmed on delivery
	delivered bool
	waiting   bool
	done      bool
}

// NewWaiter creates a Waiter bound to the scheduler.
func (s *Scheduler) NewWaiter() *Waiter {
	return &Waiter{s: s}
}

// Bind attaches a zero Waiter (typically embedded in a caller's struct)
// to the scheduler. It must be called before any other method.
func (w *Waiter) Bind(s *Scheduler) { w.s = s }

// deliverLocked records v with s.mu held and reports whether the value
// was accepted (false when the waiter already received a value or already
// timed out). A parked receiver is moved to the run queue and its pending
// timeout event is cancelled.
func (w *Waiter) deliverLocked(v any) bool {
	if w.delivered || w.done {
		return false
	}
	w.delivered = true
	w.val = v
	if w.waiting {
		w.done = true
		if w.tev != nil {
			w.s.q.kill(w.tev)
			w.tev = nil
		}
		w.s.unparkLocked(w.p)
	}
	return true
}

// Deliver hands v to the waiter and wakes it. Later Delivers are ignored.
// It reports whether the value was accepted (false if the waiter already
// got a value or timed out).
func (w *Waiter) Deliver(v any) bool {
	w.s.mu.Lock()
	accepted := w.deliverLocked(v)
	w.s.mu.Unlock()
	return accepted
}

// Wait parks the calling simulated goroutine until Deliver is called or
// timeout virtual time elapses (timeout ≤ 0 waits forever). It returns the
// delivered value, or ErrTimeout.
func (w *Waiter) Wait(timeout time.Duration) (any, error) {
	w.s.mu.Lock()
	if w.delivered {
		v := w.val
		w.s.mu.Unlock()
		return v, nil
	}
	p := getParker()
	w.waiting = true
	w.p = p
	if timeout > 0 {
		w.tev = w.s.scheduleLocked(w.s.now.Add(timeout))
		w.tev.arg = w
	}
	w.s.park(p)

	w.s.mu.Lock()
	w.p = nil
	delivered, v := w.delivered, w.val
	w.s.mu.Unlock()
	putParker(p)
	if delivered {
		return v, nil
	}
	return nil, ErrTimeout
}

// Semaphore models a pool of identical servers/workers: Acquire parks the
// caller until a slot frees. Together with Sleep for the service time it
// forms the M/G/c queueing model behind manager capacity.
type Semaphore struct {
	s       *Scheduler
	free    int
	waiters []*Waiter
	queued  int
	maxQ    int
}

// NewSemaphore creates a semaphore with n slots.
func (s *Scheduler) NewSemaphore(n int) *Semaphore {
	return &Semaphore{s: s, free: n}
}

// Acquire takes a slot, parking for up to timeout (≤ 0 forever).
func (m *Semaphore) Acquire(timeout time.Duration) error {
	m.s.mu.Lock()
	if m.free > 0 {
		m.free--
		m.s.mu.Unlock()
		return nil
	}
	w := &Waiter{s: m.s}
	m.waiters = append(m.waiters, w)
	m.queued++
	if m.queued > m.maxQ {
		m.maxQ = m.queued
	}
	m.s.mu.Unlock()

	_, err := w.Wait(timeout)

	m.s.mu.Lock()
	m.queued--
	if err != nil {
		for i, r := range m.waiters {
			if r == w {
				m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
				break
			}
		}
		m.s.mu.Unlock()
		return err
	}
	m.s.mu.Unlock()
	return nil
}

// Release frees a slot, handing it atomically to the oldest live waiter.
func (m *Semaphore) Release() {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	for len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		if w.deliverLocked(nil) {
			return
		}
		// That waiter timed out concurrently; hand the slot to the next.
	}
	m.free++
}

// QueueDepth reports current and high-water queue lengths.
func (m *Semaphore) QueueDepth() (cur, max int) {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	return m.queued, m.maxQ
}
