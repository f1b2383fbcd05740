package sim

import (
	"errors"
	"time"
)

// ErrTimeout is returned by Wait/Recv/Acquire when the virtual-time
// timeout elapses before the awaited condition occurs.
var ErrTimeout = errors.New("sim: timeout")

// ErrClosed is returned when waiting on a closed Queue.
var ErrClosed = errors.New("sim: queue closed")

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
		ev := w.s.scheduleLocked(w.s.now.Add(timeout))
		ev.w = w
		w.tev = ev
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

// Queue is an unbounded FIFO mailbox with virtual-time blocking receive.
// Send never blocks. A Queue models an in-order message stream (e.g. a
// peer's incoming packet queue).
type Queue struct {
	s      *Scheduler
	items  []any
	recvrs []*Waiter
	closed bool
}

// NewQueue creates an empty queue bound to the scheduler.
func (s *Scheduler) NewQueue() *Queue {
	return &Queue{s: s}
}

// Send enqueues v, waking the oldest live blocked receiver if any.
// Sending on a closed queue is a silent no-op (the message is dropped,
// mirroring delivery to a departed peer).
func (q *Queue) Send(v any) {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	if q.closed {
		return
	}
	for len(q.recvrs) > 0 {
		w := q.recvrs[0]
		q.recvrs = q.recvrs[1:]
		if w.deliverLocked(v) {
			return
		}
		// Receiver timed out concurrently; try the next one.
	}
	q.items = append(q.items, v)
}

// Close wakes all blocked receivers with ErrClosed and drops future sends.
func (q *Queue) Close() {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	for _, w := range q.recvrs {
		w.deliverLocked(ErrClosed)
	}
	q.recvrs = nil
}

// Len reports the number of queued items.
func (q *Queue) Len() int {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	return len(q.items)
}

// Recv dequeues the oldest item, parking the caller for up to timeout
// (timeout ≤ 0 waits forever). It returns ErrClosed once the queue is
// closed, and ErrTimeout on expiry.
func (q *Queue) Recv(timeout time.Duration) (any, error) {
	q.s.mu.Lock()
	if len(q.items) > 0 {
		v := q.items[0]
		q.items = q.items[1:]
		q.s.mu.Unlock()
		return v, nil
	}
	if q.closed {
		q.s.mu.Unlock()
		return nil, ErrClosed
	}
	w := &Waiter{s: q.s}
	q.recvrs = append(q.recvrs, w)
	q.s.mu.Unlock()

	v, err := w.Wait(timeout)
	if err != nil {
		q.s.mu.Lock()
		for i, r := range q.recvrs {
			if r == w {
				q.recvrs = append(q.recvrs[:i], q.recvrs[i+1:]...)
				break
			}
		}
		q.s.mu.Unlock()
		return nil, err
	}
	if errC, ok := v.(error); ok && errors.Is(errC, ErrClosed) {
		return nil, ErrClosed
	}
	return v, nil
}

// WaitGroup counts simulated activities and lets a goroutine park until
// the count drops to zero.
type WaitGroup struct {
	s       *Scheduler
	count   int
	waiters []*Waiter
}

// NewWaitGroup creates a WaitGroup bound to the scheduler.
func (s *Scheduler) NewWaitGroup() *WaitGroup {
	return &WaitGroup{s: s}
}

// Add adjusts the counter by delta; when it reaches zero all waiters wake.
func (g *WaitGroup) Add(delta int) {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	g.count += delta
	if g.count <= 0 {
		for _, w := range g.waiters {
			w.deliverLocked(nil)
		}
		g.waiters = nil
	}
}

// Done decrements the counter by one.
func (g *WaitGroup) Done() { g.Add(-1) }

// Go runs fn in a simulated goroutine tracked by the group.
func (g *WaitGroup) Go(fn func()) {
	g.Add(1)
	g.s.Go(func() {
		defer g.Done()
		fn()
	})
}

// Wait parks until the counter reaches zero (timeout ≤ 0 waits forever).
func (g *WaitGroup) Wait(timeout time.Duration) error {
	g.s.mu.Lock()
	if g.count <= 0 {
		g.s.mu.Unlock()
		return nil
	}
	w := &Waiter{s: g.s}
	g.waiters = append(g.waiters, w)
	g.s.mu.Unlock()
	_, err := w.Wait(timeout)
	return err
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
