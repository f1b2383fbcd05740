package sim

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestCancelledTimersBounded pins the dead-event purge: a workload that
// schedules and immediately cancels timers must not grow the heap without
// bound. Before the purge existed, every Stop left a tombstone in the
// heap until its (possibly far-future) due time.
func TestCancelledTimersBounded(t *testing.T) {
	s := New(t0, 1)
	const churn = 20000
	for i := 0; i < churn; i++ {
		tm := s.After(time.Hour+time.Duration(i)*time.Second, func() {
			t.Error("cancelled timer fired")
		})
		tm.Stop()
	}
	s.mu.Lock()
	heapLen, dead := len(s.q.events), s.q.dead
	s.mu.Unlock()
	// The compaction policy allows at most ~2×purgeFloor dead entries to
	// linger (purge triggers at dead >= purgeFloor when dead is the
	// majority). Anything near churn means the purge is broken.
	if bound := 2*purgeFloor + 16; heapLen > bound {
		t.Fatalf("heap holds %d events (%d dead) after %d cancelled timers; want <= %d",
			heapLen, dead, churn, bound)
	}
	if got := s.pending(); got != 0 {
		t.Fatalf("Pending() = %d after cancelling every timer; want 0", got)
	}

	// Live timers interleaved with the churn must still fire, exactly once.
	fired := 0
	for i := 0; i < 100; i++ {
		s.After(time.Duration(i+1)*time.Millisecond, func() { fired++ })
		tm := s.After(time.Hour, func() { t.Error("cancelled timer fired") })
		tm.Stop()
	}
	s.RunUntil(t0.Add(time.Second))
	if fired != 100 {
		t.Fatalf("fired %d of 100 live timers amid cancellation churn", fired)
	}
}

// TestWaiterTimeoutEventReclaimed pins the Timer.Stop leak fix in the
// wait layer: a Waiter that is delivered promptly must kill its pending
// timeout event instead of leaving it in the heap until the timeout
// would have expired.
func TestWaiterTimeoutEventReclaimed(t *testing.T) {
	s := New(t0, 1)
	s.Go(func() {
		for i := 0; i < 5000; i++ {
			w := s.NewWaiter()
			s.AfterArg(time.Microsecond, func(v any) { v.(*Waiter).Deliver(nil) }, w)
			if _, err := w.Wait(24 * time.Hour); err != nil {
				t.Errorf("iter %d: %v", i, err)
				return
			}
		}
	})
	s.RunUntil(t0.Add(time.Hour))
	if got := s.pending(); got != 0 {
		t.Fatalf("Pending() = %d; delivered waiters leaked their timeout events", got)
	}
	s.mu.Lock()
	heapLen := len(s.q.events)
	s.mu.Unlock()
	if bound := 2*purgeFloor + 16; heapLen > bound {
		t.Fatalf("heap holds %d events after 5000 delivered waits; want <= %d", heapLen, bound)
	}
}

// TestConcurrentStress hammers the scheduler from many simulated
// goroutines while a real OS thread pokes the thread-safe accessors.
// It exists to run under -race (make race): any unsynchronized access in
// the park/handoff/pool machinery shows up here.
func TestConcurrentStress(t *testing.T) {
	s := New(t0, 99)
	sem := s.NewSemaphore(0)
	const workers = 8
	for i := 0; i < workers; i++ {
		i := i
		s.Go(func() {
			for n := 0; n < 300; n++ {
				switch (i + n) % 5 {
				case 0:
					s.Sleep(time.Duration(1+s.intn(1000)) * time.Microsecond)
				case 1:
					tm := s.After(time.Duration(1+s.intn(5000))*time.Microsecond, func() {})
					tm.Stop()
				case 2:
					sem.Release()
				case 3:
					_ = sem.Acquire(time.Duration(1+s.intn(500)) * time.Microsecond)
				case 4:
					var wg sync.WaitGroup
					wg.Add(1)
					s.GoArg(func(any) {
						s.Sleep(time.Microsecond)
						wg.Done()
					}, nil)
					s.Sleep(10 * time.Microsecond)
					wg.Wait()
				}
			}
		})
	}
	stop := make(chan struct{})
	var ext sync.WaitGroup
	ext.Add(1)
	go func() { // external OS thread, outside any simulated goroutine
		defer ext.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.pending()
				_ = s.Now()
				_ = s.intn(10)
				runtime.Gosched()
			}
		}
	}()
	s.RunUntil(t0.Add(time.Hour))
	close(stop)
	ext.Wait()
	if got := s.pending(); got != 0 {
		t.Fatalf("Pending() = %d after quiescence; want 0", got)
	}
}
