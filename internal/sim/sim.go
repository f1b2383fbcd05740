// Package sim provides a deterministic discrete-event simulator with a
// virtual clock and cooperative goroutine scheduling.
//
// The simulator lets ordinary, sequential Go code (protocol state machines,
// clients, servers) run against virtual time: a goroutine started with
// (*Scheduler).Go may call Sleep, wait on Waiters and Queues, and time
// advances instantaneously to the next scheduled event whenever every
// goroutine is parked. A simulated week of protocol traffic therefore runs
// in the CPU time it takes to execute the protocol code itself.
//
// Execution is strictly serialized: one run token exists and only its
// holder runs. Waking a goroutine or starting one appends it to a FIFO
// run queue; the token moves only when its holder parks or exits, and
// whoever gives it up runs the event loop itself (drive) until the token
// is due to somebody else — there is no event-loop goroutine. Which OS
// goroutine executes the loop never shows in the order of events, so
// determinism for a fixed seed is a hard guarantee, independent of
// GOMAXPROCS, OS scheduling, or other simulations running concurrently
// in the same process.
//
// All blocking inside simulated goroutines MUST go through the scheduler
// primitives (Sleep, Waiter.Wait, Queue.Recv, WaitGroup.Wait). Blocking on
// ordinary Go channels or mutexes held across virtual time would deadlock
// the virtual clock.
package sim

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Scheduler owns the virtual clock, the pending event queue, and the run
// token that serializes simulated goroutines.
//
// Events fire in (time, insertion-sequence) order and unparked goroutines
// run in FIFO wake order, so the simulation is deterministic for a fixed
// seed.
type Scheduler struct {
	mu      sync.Mutex
	now     time.Time
	q       equeue    // heap + timer wheel + freelist (see queue.go)
	runq    []task    // woken goroutines and unstarted bodies awaiting the token, FIFO
	runqOff int       // consumed prefix of runq
	idle    []*worker // parked worker goroutines awaiting a Go/GoArg task
	main    *parker   // RunUntil's caller parks here; the drive's end wakes it
	limit   int64     // the running RunUntil's deadline key
	stopped bool
	stats   Stats
	rng     *rand.Rand
	rngMu   sync.Mutex
}

// Stats counts what the engine did: plain counters, read with
// (*Scheduler).Stats.
type Stats struct {
	Events        uint64 // scheduled events fired (callbacks, sleep expiries, wait timeouts)
	Handoffs      uint64 // run token passed to a different OS goroutine
	InlineResumes uint64 // a parker's own wake-up came next: Sleep/Wait/RunUntil returned without a switch
	InlineTasks   uint64 // Go/GoArg bodies run by an idle worker as a plain call
}

// Stats returns the engine counters so far.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// New creates a Scheduler whose clock starts at start and whose random
// stream is derived from seed.
func New(start time.Time, seed int64) *Scheduler {
	s := &Scheduler{
		now:  start,
		main: getParker(),
		rng:  rand.New(rand.NewSource(seed)),
	}
	s.q.init(start.UnixNano())
	return s
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Rand runs fn with the scheduler's seeded random source. The source is
// guarded by its own mutex so simulated goroutines may call it freely.
func (s *Scheduler) Rand(fn func(r *rand.Rand)) {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	fn(s.rng)
}

// Float64 draws from the scheduler's seeded random stream.
func (s *Scheduler) Float64() float64 {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.Float64()
}

// Intn draws from the scheduler's seeded random stream.
func (s *Scheduler) Intn(n int) int {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.Intn(n)
}

// ExpFloat64 draws an exponentially distributed value with mean 1.
func (s *Scheduler) ExpFloat64() float64 {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.ExpFloat64()
}

// parker is a reusable one-shot wakeup slot. The buffered channel lets
// wake run before block without losing the token, and lets wake be called
// with s.mu held (the send can never block: one wake per park cycle).
type parker struct{ ch chan struct{} }

func (p *parker) wake()  { p.ch <- struct{}{} }
func (p *parker) block() { <-p.ch }

var parkerPool = sync.Pool{New: func() any { return &parker{ch: make(chan struct{}, 1)} }}

func getParker() *parker  { return parkerPool.Get().(*parker) }
func putParker(p *parker) { parkerPool.Put(p) }

// event is a scheduled occurrence. Exactly one of fn, fnA, p, w is set:
// a plain callback, a callback with its argument (saves the closure on
// hot RPC paths), a sleeping goroutine due the run token, or a Waiter
// whose timeout this is. Events are pooled: gen distinguishes a live
// event from a recycled one so a stale Timer cannot cancel its slot's
// next tenant.
type event struct {
	key     int64 // due instant as UnixNano: the only time representation
	seq     uint64
	fn      func()
	fnA     func(any)
	arg     any
	p       *parker
	w       *Waiter
	dead    bool
	inWheel bool   // resident in a wheel slot rather than the heap
	wnext   *event // intrusive wheel-slot chain link
	gen     uint64
}

// maxFree bounds the event freelist; beyond it events fall back to GC.
const maxFree = 4096

// purgeFloor is the minimum number of dead events before a compaction is
// considered (small heaps clean themselves up through popLocked).
const purgeFloor = 256

// Timer handles a pending event so it can be cancelled. The zero Timer
// is inert; Stop on it reports false.
type Timer struct {
	s   *Scheduler
	ev  *event
	gen uint64
}

// Stop cancels the timer. It reports whether the event had not yet fired
// or been stopped.
func (t Timer) Stop() bool {
	if t.s == nil || t.ev == nil {
		return false
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.ev.gen != t.gen || t.ev.dead {
		return false
	}
	t.s.q.kill(t.ev)
	return true
}

// At schedules fn to run at virtual time at (or now, whichever is later).
// fn runs in place on whichever goroutine is driving the event loop; it
// must not block on virtual time — use Go inside fn for anything that
// sleeps.
func (s *Scheduler) At(at time.Time, fn func()) Timer {
	s.mu.Lock()
	ev := s.scheduleLocked(at)
	ev.fn = fn
	t := Timer{s: s, ev: ev, gen: ev.gen}
	s.mu.Unlock()
	return t
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	ev := s.scheduleLocked(s.now.Add(d))
	ev.fn = fn
	t := Timer{s: s, ev: ev, gen: ev.gen}
	s.mu.Unlock()
	return t
}

// AfterArg schedules fn(arg) to run d from now. It exists for hot paths
// (per-message delivery in simnet) where a shared top-level fn plus an
// explicit argument replaces a fresh closure per event.
func (s *Scheduler) AfterArg(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	ev := s.scheduleLocked(s.now.Add(d))
	ev.fnA = fn
	ev.arg = arg
	t := Timer{s: s, ev: ev, gen: ev.gen}
	s.mu.Unlock()
	return t
}

// maxEventTime caps schedulable times at the largest UnixNano-representable
// instant (year 2262); later events are clamped rather than overflowing the
// heap key. Simulations place sentinel events decades out, not centuries.
var maxEventTime = time.Unix(0, math.MaxInt64)

func (s *Scheduler) scheduleLocked(at time.Time) *event {
	if at.Before(s.now) {
		at = s.now
	} else if at.After(maxEventTime) {
		at = maxEventTime
	}
	return s.q.schedule(at.UnixNano())
}

// task is something for the run token's holder to do next: resume a
// parked goroutine (p), or call fn / fnA(arg) — a Go/GoArg body on the
// run queue that has not started yet, or a due event's callback.
type task struct {
	p   *parker
	fn  func()
	fnA func(any)
	arg any
}

func (t *task) run() {
	if t.fn != nil {
		t.fn()
	} else {
		t.fnA(t.arg)
	}
}

// worker is a pooled OS goroutine that runs Go/GoArg bodies. A body gets
// a worker when the run token reaches it and the driver holding the token
// cannot call it in place (see drive). t is written before the parker
// wake and read after it, so the channel provides the happens-before edge.
type worker struct {
	s *Scheduler
	p *parker
	t task
}

// maxIdleWorkers bounds the parked-worker pool; beyond it a finishing
// worker exits instead of idling.
const maxIdleWorkers = 256

func (w *worker) loop() {
	s := w.s
	for {
		w.p.block()
		t := w.t
		w.t = task{}
		t.run()
		s.mu.Lock()
		s.drive(nil)
		pooled := !s.stopped && len(s.idle) < maxIdleWorkers
		if pooled {
			s.idle = append(s.idle, w)
		}
		s.mu.Unlock()
		if !pooled {
			putParker(w.p)
			return
		}
	}
}

// startWorkerLocked passes the run token to a pooled (or fresh) worker
// together with the body it is to run.
func (s *Scheduler) startWorkerLocked(t task) {
	var w *worker
	if n := len(s.idle); n > 0 {
		w = s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
	} else {
		w = &worker{s: s, p: getParker()}
		go w.loop()
	}
	w.t = t
	s.passLocked(w.p, nil)
}

// Go starts a simulated goroutine. The body joins the run queue behind
// already runnable goroutines and starts once the run token reaches it;
// virtual time does not advance while anything is runnable.
func (s *Scheduler) Go(fn func()) {
	s.mu.Lock()
	s.runq = append(s.runq, task{fn: fn})
	s.mu.Unlock()
}

// GoArg starts a simulated goroutine running fn(arg) — the closure-free
// sibling of Go for hot paths that spawn a goroutine per message.
func (s *Scheduler) GoArg(fn func(any), arg any) {
	s.mu.Lock()
	s.runq = append(s.runq, task{fnA: fn, arg: arg})
	s.mu.Unlock()
}

// unparkLocked queues p's goroutine for the run token; the token's
// holder drains the run queue when it gives the token up.
func (s *Scheduler) unparkLocked(p *parker) {
	s.runq = append(s.runq, task{p: p})
}

func (s *Scheduler) runqPopLocked() (task, bool) {
	if s.runqOff == len(s.runq) {
		return task{}, false
	}
	t := s.runq[s.runqOff]
	s.runq[s.runqOff] = task{}
	s.runqOff++
	if s.runqOff == len(s.runq) {
		s.runq = s.runq[:0]
		s.runqOff = 0
	}
	return t, true
}

// drive is the event loop. Its caller holds s.mu and the run token and is
// giving the token up: a goroutine parking on self (Sleep, Waiter.Wait,
// RunUntil's caller on s.main) or a worker whose body returned (nil). It
// drains the run queue in FIFO order, then fires events through s.limit
// in (time, seq) order, callbacks in place, until the token is another
// goroutine's (false: the caller must block on its parker) or self's
// again (true: the caller carries on, never having blocked). A finished
// run — Stop, or nothing due by the limit — passes it to RunUntil's caller.
// An unstarted body is called in place only from a worker's empty stack:
// any other driver is a parked frame that the body, once it parked and
// drove in turn, could be asked to resume from on top of it.
func (s *Scheduler) drive(self *parker) bool {
	for !s.stopped {
		t, queued := s.runqPopLocked()
		if !queued {
			ev := s.q.popThrough(s.limit)
			if ev == nil {
				break
			}
			s.stats.Events++
			s.now = time.Unix(0, ev.key).UTC()
			t = task{p: ev.p, fn: ev.fn, fnA: ev.fnA, arg: ev.arg}
			if w := ev.w; w != nil {
				// A Wait timed out (a Deliver in time kills this event).
				w.done, w.tev, t.p = true, nil, w.p
			}
			s.q.release(ev)
		}
		switch {
		case t.p != nil:
			return s.passLocked(t.p, self)
		case queued && self != nil:
			s.startWorkerLocked(t)
			return false
		case queued:
			s.stats.InlineTasks++
		}
		s.mu.Unlock()
		t.run()
		s.mu.Lock()
	}
	return s.passLocked(s.main, self)
}

// passLocked gives the run token to p's goroutine and reports whether
// that is the driving goroutine itself.
func (s *Scheduler) passLocked(p, self *parker) bool {
	if p == self {
		s.stats.InlineResumes++
		return true
	}
	s.stats.Handoffs++
	p.wake()
	return false
}

// park gives up the run token and returns once p's goroutine holds it
// again. It is called with s.mu held and returns with it released.
func (s *Scheduler) park(p *parker) {
	resumed := s.drive(p)
	s.mu.Unlock()
	if !resumed {
		p.block()
	}
}

// Sleep blocks the calling simulated goroutine for d of virtual time.
func (s *Scheduler) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p := getParker()
	s.mu.Lock()
	ev := s.scheduleLocked(s.now.Add(d))
	ev.p = p
	s.park(p)
	putParker(p)
}

// Run executes events until the queue is empty and all goroutines have
// parked or exited, or until Stop is called.
func (s *Scheduler) Run() {
	s.RunUntil(time.Time{})
}

// RunUntil executes events with at ≤ deadline (zero deadline = no limit)
// until the queue drains or Stop is called; it returns once every
// goroutine has parked or exited. The clock is left at the last fired
// event (it does not jump to the deadline).
func (s *Scheduler) RunUntil(deadline time.Time) {
	s.mu.Lock()
	s.limit = noLimit
	if !deadline.IsZero() {
		s.limit = deadline.UnixNano()
	}
	s.park(s.main)
}

// Stop ends the run for good, from a callback, a simulated goroutine or
// outside the simulation. The run token's holder keeps it until it
// parks or exits (a callback: returns) and then passes it straight to
// RunUntil's caller: no further event fires, nothing queued starts, and
// RunUntil returns with no simulated code still running. Parked
// goroutines stay parked; a later Run/RunUntil returns immediately.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
}

// Pending reports the number of live scheduled events in O(1).
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q.pending()
}

// earliestKey returns a lower bound on the virtual time (as a UnixNano
// key) of the scheduler's next work item: the current time when any
// goroutine is runnable, otherwise the earliest queued event. ok is
// false when the scheduler is fully quiescent with an empty queue.
func (s *Scheduler) earliestKey() (key int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runqOff < len(s.runq) {
		return s.now.UnixNano(), true
	}
	b := s.q.earliestBound()
	return b, b != noLimit
}
