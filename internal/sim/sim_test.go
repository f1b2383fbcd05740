package sim

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)

func TestClockStartsAtGivenTime(t *testing.T) {
	s := New(t0, 1)
	if got := s.Now(); !got.Equal(t0) {
		t.Fatalf("Now() = %v, want %v", got, t0)
	}
}

func TestAfterFiresInOrder(t *testing.T) {
	s := New(t0, 1)
	var got []int
	s.After(3*time.Second, func() { got = append(got, 3) })
	s.After(1*time.Second, func() { got = append(got, 1) })
	s.After(2*time.Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New(t0, 1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	s := New(t0, 1)
	var at time.Time
	s.After(90*time.Minute, func() { at = s.Now() })
	s.Run()
	if want := t0.Add(90 * time.Minute); !at.Equal(want) {
		t.Fatalf("event saw clock %v, want %v", at, want)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(t0, 1)
	fired := false
	tm := s.After(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestAtInPastFiresNow(t *testing.T) {
	s := New(t0, 1)
	var at time.Time
	s.After(time.Hour, func() {
		s.At(t0, func() { at = s.Now() }) // in the past
	})
	s.Run()
	if want := t0.Add(time.Hour); !at.Equal(want) {
		t.Fatalf("past event fired at %v, want clamped to %v", at, want)
	}
}

func TestGoAndSleep(t *testing.T) {
	s := New(t0, 1)
	var wake time.Time
	s.Go(func() {
		s.Sleep(42 * time.Second)
		wake = s.Now()
	})
	s.Run()
	if want := t0.Add(42 * time.Second); !wake.Equal(want) {
		t.Fatalf("woke at %v, want %v", wake, want)
	}
}

func TestSleepNegativeDuration(t *testing.T) {
	s := New(t0, 1)
	done := false
	s.Go(func() {
		s.Sleep(-time.Second)
		done = true
	})
	s.Run()
	if !done {
		t.Fatal("Sleep(-1s) never returned")
	}
}

func TestNestedGoroutines(t *testing.T) {
	s := New(t0, 1)
	sum := 0
	s.Go(func() {
		for i := 0; i < 5; i++ {
			i := i
			s.Go(func() {
				s.Sleep(time.Duration(i) * time.Second)
				sum += i
			})
		}
		s.Sleep(time.Minute)
	})
	s.Run()
	if sum != 10 {
		t.Fatalf("sum = %d, want 10", sum)
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := New(t0, 1)
	var fired []int
	s.After(time.Hour, func() { fired = append(fired, 1) })
	s.After(3*time.Hour, func() { fired = append(fired, 2) })
	s.RunUntil(t0.Add(2 * time.Hour))
	if len(fired) != 1 {
		t.Fatalf("fired = %v, want only the first event", fired)
	}
	s.Run()
	if len(fired) != 2 {
		t.Fatalf("fired = %v after full Run, want both", fired)
	}
}

func TestWaiterDeliverThenWait(t *testing.T) {
	s := New(t0, 1)
	w := s.NewWaiter()
	var got any
	s.Go(func() {
		w.Deliver("hello")
		v, err := w.Wait(0)
		if err != nil {
			t.Errorf("Wait after Deliver: %v", err)
		}
		got = v
	})
	s.Run()
	if got != "hello" {
		t.Fatalf("got %v, want hello", got)
	}
}

func TestWaiterWaitThenDeliver(t *testing.T) {
	s := New(t0, 1)
	w := s.NewWaiter()
	var got any
	var at time.Time
	s.Go(func() {
		v, err := w.Wait(0)
		if err != nil {
			t.Errorf("Wait: %v", err)
		}
		got, at = v, s.Now()
	})
	s.After(5*time.Second, func() { w.Deliver(99) })
	s.Run()
	if got != 99 {
		t.Fatalf("got %v, want 99", got)
	}
	if want := t0.Add(5 * time.Second); !at.Equal(want) {
		t.Fatalf("woke at %v, want %v", at, want)
	}
}

func TestWaiterTimeout(t *testing.T) {
	s := New(t0, 1)
	w := s.NewWaiter()
	var err error
	var at time.Time
	s.Go(func() {
		_, err = w.Wait(3 * time.Second)
		at = s.Now()
	})
	s.Run()
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if want := t0.Add(3 * time.Second); !at.Equal(want) {
		t.Fatalf("timed out at %v, want %v", at, want)
	}
}

func TestWaiterSecondDeliverIgnored(t *testing.T) {
	s := New(t0, 1)
	w := s.NewWaiter()
	if !w.Deliver(1) {
		t.Fatal("first Deliver rejected")
	}
	if w.Deliver(2) {
		t.Fatal("second Deliver accepted")
	}
	var got any
	s.Go(func() { got, _ = w.Wait(0) })
	s.Run()
	if got != 1 {
		t.Fatalf("got %v, want first value 1", got)
	}
}

func TestWaiterDeliverAfterTimeoutRejected(t *testing.T) {
	s := New(t0, 1)
	w := s.NewWaiter()
	s.Go(func() {
		if _, err := w.Wait(time.Second); err != ErrTimeout {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
	})
	var accepted bool
	s.After(2*time.Second, func() { accepted = w.Deliver("late") })
	s.Run()
	if accepted {
		t.Fatal("Deliver after timeout was accepted")
	}
}

func TestSemaphoreSerializesWork(t *testing.T) {
	// 1 slot, 3 jobs of 10s each: completions at 10, 20, 30s.
	s := New(t0, 1)
	sem := s.NewSemaphore(1)
	var ends []time.Duration
	for i := 0; i < 3; i++ {
		s.Go(func() {
			if err := sem.Acquire(0); err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			s.Sleep(10 * time.Second)
			sem.Release()
			ends = append(ends, s.Now().Sub(t0))
		})
	}
	s.Run()
	if len(ends) != 3 {
		t.Fatalf("only %d jobs finished", len(ends))
	}
	want := []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestSemaphoreParallelSlots(t *testing.T) {
	// 3 slots, 3 jobs of 10s: all done at 10s.
	s := New(t0, 1)
	sem := s.NewSemaphore(3)
	done := 0
	for i := 0; i < 3; i++ {
		s.Go(func() {
			_ = sem.Acquire(0)
			s.Sleep(10 * time.Second)
			sem.Release()
			if s.Now().Sub(t0) == 10*time.Second {
				done++
			}
		})
	}
	s.Run()
	if done != 3 {
		t.Fatalf("%d jobs finished at t=10s, want 3", done)
	}
}

func TestSemaphoreAcquireTimeoutDoesNotLeakSlot(t *testing.T) {
	s := New(t0, 1)
	sem := s.NewSemaphore(1)
	// Stagger the contenders with events so the acquisition order is
	// deterministic regardless of goroutine scheduling.
	s.Go(func() {
		_ = sem.Acquire(0)
		s.Sleep(10 * time.Second)
		sem.Release()
	})
	s.After(time.Millisecond, func() {
		s.Go(func() {
			if err := sem.Acquire(2 * time.Second); err != ErrTimeout {
				t.Errorf("err = %v, want ErrTimeout", err)
			}
		})
	})
	acquired := false
	s.After(2*time.Millisecond, func() {
		s.Go(func() {
			if err := sem.Acquire(0); err == nil {
				acquired = true
				sem.Release()
			}
		})
	})
	s.Run()
	if !acquired {
		t.Fatal("slot leaked after a waiter timed out")
	}
}

func TestSemaphoreQueueDepth(t *testing.T) {
	s := New(t0, 1)
	sem := s.NewSemaphore(1)
	for i := 0; i < 5; i++ {
		s.Go(func() {
			_ = sem.Acquire(0)
			s.Sleep(time.Second)
			sem.Release()
		})
	}
	s.Run()
	if _, max := sem.QueueDepth(); max != 4 {
		t.Fatalf("max queue depth = %d, want 4", max)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		s := New(t0, 7)
		var samples []time.Duration
		// Draw all delays in one goroutine: concurrent draws from the
		// shared stream would have scheduler-dependent order.
		s.Go(func() {
			for i := 0; i < 50; i++ {
				d := time.Duration(s.Float64() * float64(time.Second))
				s.Go(func() {
					s.Sleep(d)
					samples = append(samples, s.Now().Sub(t0))
				})
			}
		})
		s.Run()
		return samples
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStopAbortsRun(t *testing.T) {
	s := New(t0, 1)
	n := 0
	for i := 1; i <= 100; i++ {
		s.After(time.Duration(i)*time.Second, func() {
			n++
			if n == 10 {
				s.Stop()
			}
		})
	}
	s.Run()
	if n != 10 {
		t.Fatalf("ran %d events, want 10", n)
	}
}

// TestStopSemantics pins what Stop promises wherever it is called from:
// the token holder runs on until it parks, nothing else runs, Run returns
// only then, and every later Run/RunUntil returns at once.
func TestStopSemantics(t *testing.T) {
	cases := []struct {
		name string
		// arm schedules the scenario and returns the check to make once
		// Run has returned.
		arm func(t *testing.T, s *Scheduler) (verify func())
	}{
		{"from a callback", func(t *testing.T, s *Scheduler) func() {
			n := 0
			for i := 1; i <= 100; i++ {
				s.After(time.Duration(i)*time.Second, func() {
					if n++; n == 10 {
						s.Stop()
						s.Go(func() { t.Error("goroutine spawned by the stopping callback ran") })
					}
				})
			}
			s.Go(func() {
				s.Sleep(time.Hour)
				t.Error("sleeper woke after Stop")
			})
			return func() {
				if n != 10 {
					t.Errorf("ran %d events, want 10", n)
				}
			}
		}},
		{"from a simulated goroutine", func(t *testing.T, s *Scheduler) func() {
			parked := false
			s.Go(func() {
				s.Sleep(time.Second)
				s.Go(func() { t.Error("goroutine queued behind the stopper ran") })
				s.Stop()
				// Still holding the token: Run must not return under us.
				time.Sleep(20 * time.Millisecond)
				parked = true
				s.Sleep(time.Second)
				t.Error("stopper resumed after parking")
			})
			return func() {
				if !parked {
					t.Error("Run returned while the stopping goroutine was still running")
				}
			}
		}},
		{"from a goroutine that exits", func(t *testing.T, s *Scheduler) func() {
			exited := false
			s.Go(func() {
				s.Stop()
				time.Sleep(20 * time.Millisecond)
				exited = true
			})
			s.After(time.Second, func() { t.Error("event fired after Stop") })
			return func() {
				if !exited {
					t.Error("Run returned before the stopping goroutine finished")
				}
			}
		}},
		{"from outside", func(t *testing.T, s *Scheduler) func() {
			var fired atomic.Int64
			var tick func()
			tick = func() {
				fired.Add(1)
				s.After(time.Millisecond, tick)
			}
			s.After(0, tick)
			go func() {
				for fired.Load() < 1000 {
					time.Sleep(time.Millisecond)
				}
				s.Stop()
			}()
			return func() {
				at := fired.Load()
				time.Sleep(10 * time.Millisecond)
				if at < 1000 || fired.Load() != at {
					t.Errorf("fired %d at return, %d later; want >= 1000 and unchanged", at, fired.Load())
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(t0, 1)
			verify := c.arm(t, s)
			s.Run()
			verify()

			before := s.Stats()
			s.After(0, func() { t.Error("event fired by a Run after Stop") })
			s.Go(func() { t.Error("goroutine started by a Run after Stop") })
			s.Run()
			s.RunUntil(s.Now().Add(time.Hour))
			after := s.Stats()
			if after.Events != before.Events || after.Handoffs != before.Handoffs {
				t.Errorf("Run after Stop did work: %+v -> %+v", before, after)
			}
		})
	}
}

// TestBuriedDriverStartsNoTask: a worker between tasks runs the next
// body as a plain call, so when that body parks it drives with the
// worker's loop frame beneath it. If it started the next body there too,
// the first could never be resumed once its wake-up came — its frames
// would be buried — and the run would deadlock. A parked driver
// therefore hands unstarted bodies to another worker.
func TestBuriedDriverStartsNoTask(t *testing.T) {
	s := New(t0, 1)
	var log []string
	s.Go(func() { // runs on a worker the RunUntil caller had to start
		s.Go(func() { // runs inline once that worker's first body returned
			s.Go(func() {
				s.Sleep(2 * time.Millisecond)
				log = append(log, "t2 woke")
			})
			s.Sleep(time.Millisecond) // drives; t2 is next on the run queue
			log = append(log, "t1 woke")
		})
	})
	done := make(chan struct{})
	go func() { s.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: a body was started on top of a parked one")
	}
	if len(log) != 2 || log[0] != "t1 woke" || log[1] != "t2 woke" {
		t.Fatalf("log = %v, want [t1 woke, t2 woke]", log)
	}
	if st := s.Stats(); st.InlineTasks != 1 {
		t.Fatalf("InlineTasks = %d, want 1 (t1 alone): %+v", st.InlineTasks, st)
	}
}

// TestStatsCounters checks each counter against a run small enough to
// count by hand.
func TestStatsCounters(t *testing.T) {
	s := New(t0, 1)
	for i := 1; i <= 3; i++ {
		s.After(time.Duration(i)*time.Second, func() {})
	}
	s.After(time.Second, func() {}).Stop() // a stopped timer is not an event
	s.Go(func() {
		for i := 0; i < 5; i++ {
			s.Sleep(time.Minute)
		}
	})
	s.Run()
	// 3 callbacks + 5 sleep expiries. The caller starts the body on a
	// worker and the worker hands the token back at the end: 2 handoffs.
	// Every Sleep finds its own expiry next. Nothing ran inline as a task.
	want := Stats{Events: 8, Handoffs: 2, InlineResumes: 5}
	if got := s.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
	s.Run() // nothing to do: the caller resumes itself
	want.InlineResumes++
	if got := s.Stats(); got != want {
		t.Fatalf("Stats after idle Run = %+v, want %+v", got, want)
	}
}

func TestPending(t *testing.T) {
	s := New(t0, 1)
	s.After(time.Second, func() {})
	tm := s.After(2*time.Second, func() {})
	tm.Stop()
	if got := s.pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1 (stopped timers excluded)", got)
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the clock matches each event's delay.
func TestEventOrderingProperty(t *testing.T) {
	f := func(delaysMS []uint16) bool {
		if len(delaysMS) == 0 {
			return true
		}
		s := New(t0, 1)
		var fired []time.Duration
		for _, d := range delaysMS {
			d := time.Duration(d) * time.Millisecond
			s.After(d, func() { fired = append(fired, s.Now().Sub(t0)) })
		}
		s.Run()
		if len(fired) != len(delaysMS) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Sleep always wakes exactly delay later, for any delay.
func TestSleepExactnessProperty(t *testing.T) {
	f := func(delayMS uint16) bool {
		s := New(t0, 1)
		ok := false
		d := time.Duration(delayMS) * time.Millisecond
		s.Go(func() {
			s.Sleep(d)
			ok = s.Now().Sub(t0) == d
		})
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
