package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// interleaveScenario runs one scheduler through every way a simulated
// goroutine can start, park and be woken — Go/GoArg from callbacks and
// from goroutines, Sleep, Waiter deliver-vs-timeout races at the same
// instant, a mailbox and a join built on Semaphore and Waiter, a
// contended Semaphore, Timer.Stop, seeded random delays, and a run split
// over several RunUntil calls — and returns the order in which the
// actors observed each other as "elapsed actor step" lines.
func interleaveScenario() []string {
	s := New(t0, 42)
	var log []string
	rec := func(actor, step string, args ...any) {
		log = append(log, fmt.Sprintf("%v %s %s", s.Now().Sub(t0), actor, fmt.Sprintf(step, args...)))
	}
	const ms = time.Millisecond
	sem := s.NewSemaphore(1)

	// A mailbox: each item or the close releases one slot of mail, so a
	// receiver parked in Acquire wakes exactly as a blocked receive would.
	mail := s.NewSemaphore(0)
	var items []any
	closed := false
	send := func(v any) {
		items = append(items, v)
		mail.Release()
	}

	// A callback spawning with Go and GoArg at one instant: spawn order
	// is run order, and the callback finishes before either body starts.
	s.After(ms, func() {
		rec("cb1", "fire")
		s.Go(func() {
			rec("a", "start")
			s.Sleep(2 * ms)
			rec("a", "woke")
			send("from-a")
		})
		s.GoArg(func(v any) {
			rec(v.(string), "start")
			s.GoArg(func(v any) { rec(v.(string), "start (spawned by b)") }, "b2")
			s.Sleep(2 * ms)
			rec(v.(string), "woke")
			send("from-b")
		}, "b")
		rec("cb1", "spawned")
	})

	// Producer: a goroutine that spawns semaphore users, then sleeps a
	// seeded-random delay.
	s.Go(func() {
		for i := 0; i < 4; i++ {
			id := fmt.Sprintf("u%d", i)
			rec("prod", "spawn %s", id)
			s.Go(func() {
				rec(id, "acquire")
				if err := sem.Acquire(2500 * time.Microsecond); err != nil {
					rec(id, "gave up: %v", err)
					return
				}
				rec(id, "holding")
				s.Sleep(1500 * time.Microsecond)
				sem.Release()
				rec(id, "released")
			})
			send(i)
			s.Sleep(time.Duration(200+s.intn(800)) * time.Microsecond)
		}
		rec("prod", "done")
	})

	// Consumer: a receive with a timeout that sometimes wins.
	s.Go(func() {
		for {
			switch err := mail.Acquire(1200 * time.Microsecond); {
			case err == ErrTimeout:
				rec("cons", "timeout")
			case len(items) > 0:
				rec("cons", "got %v", items[0])
				items = items[1:]
			case closed:
				rec("cons", "closed")
				return
			}
		}
	})
	s.After(9*ms, func() {
		rec("cb-close", "close")
		closed = true
		mail.Release()
	})

	// Deliver and timeout due at the same instant. w1's Deliver event is
	// scheduled before its Wait (lower seq, Deliver wins); w2's after
	// (the timeout wins and the Deliver is refused).
	w1, w2 := s.NewWaiter(), s.NewWaiter()
	s.After(3*ms, func() { rec("cb-w1", "deliver accepted=%v", w1.Deliver("v1")) })
	for i, w := range []*Waiter{w1, w2} {
		id := fmt.Sprintf("w%d", i+1)
		s.Go(func() {
			rec(id, "wait")
			v, err := w.Wait(3 * ms)
			rec(id, "wait returned %v %v", v, err)
		})
	}
	s.After(0, func() {
		s.After(3*ms, func() { rec("cb-w2", "deliver accepted=%v", w2.Deliver("v2")) })
	})

	// One callback waking several parked goroutines: run-queue FIFO.
	fan := []*Waiter{s.NewWaiter(), s.NewWaiter(), s.NewWaiter()}
	for i, w := range fan {
		id := fmt.Sprintf("f%d", i)
		s.Go(func() {
			v, _ := w.Wait(0)
			rec(id, "woken with %v", v)
			if i == 1 {
				s.Sleep(0) // re-park at the same instant: goes behind f2
				rec(id, "after zero sleep")
			}
		})
	}
	s.After(4*ms, func() {
		for i := len(fan) - 1; i >= 0; i-- {
			fan[i].Deliver(i)
		}
		s.Go(func() { rec("cb-fan", "spawned task runs after the woken") })
		rec("cb-fan", "delivered")
	})

	// Timer.Stop before and after firing, from a goroutine.
	s.Go(func() {
		early := s.After(5*ms, func() { rec("tm-early", "fired (must not happen)") })
		late := s.After(ms, func() { rec("tm-late", "fired") })
		s.Sleep(2 * ms)
		rec("tm", "stop early=%v late=%v", early.Stop(), late.Stop())
	})

	// A join: children of differing lengths, the last to finish wakes
	// the parent parked on a Waiter.
	s.Go(func() {
		all, left := s.NewWaiter(), 3
		for i := 3; i >= 1; i-- {
			id := fmt.Sprintf("g%d", i)
			s.Go(func() {
				s.Sleep(time.Duration(i) * 2 * ms)
				rec(id, "done")
				if left--; left == 0 {
					all.Deliver(nil)
				}
			})
		}
		rec("wg", "waiting")
		_, err := all.Wait(0)
		rec("wg", "all done err=%v", err)
	})

	// A sleeper and a callback due at the same instant: schedule order.
	s.Go(func() {
		s.After(6*ms, func() { rec("cb-tie", "before sleeper") })
		s.Sleep(6 * ms)
		rec("tie", "woke")
		s.After(0, func() { rec("cb-tie", "zero-delay callback") })
		s.Go(func() { rec("tie-child", "runs before the zero-delay callback") })
		s.Sleep(0)
		rec("tie", "woke again")
	})

	// The run is split: RunUntil returns with goroutines parked beyond
	// the deadline, the caller spawns between segments, and Run drains.
	s.RunUntil(t0.Add(2 * ms))
	rec("main", "segment 1 returned, pending=%d", s.pending())
	s.Go(func() {
		rec("late", "start")
		s.Sleep(ms)
		rec("late", "woke")
	})
	s.RunUntil(t0.Add(5 * ms))
	rec("main", "segment 2 returned, pending=%d", s.pending())
	s.Run()
	rec("main", "drained, pending=%d", s.pending())
	return log
}

// goldenInterleave was recorded on the dedicated-loop-goroutine engine
// (the commit before the baton-passing loop). Which OS goroutine runs
// the event loop is not allowed to show here.
const goldenInterleave = `
0s prod spawn u0
0s cons got 0
0s w1 wait
0s w2 wait
0s wg waiting
0s u0 acquire
0s u0 holding
505µs prod spawn u1
505µs u1 acquire
505µs cons got 1
1ms cb1 fire
1ms cb1 spawned
1ms a start
1ms b start
1ms b2 start (spawned by b)
1ms tm-late fired
1.292ms prod spawn u2
1.292ms u2 acquire
1.292ms cons got 2
1.5ms u0 released
1.5ms u1 holding
1.56ms prod spawn u3
1.56ms u3 acquire
1.56ms cons got 3
2ms tm stop early=true late=false
2ms g1 done
2ms main segment 1 returned, pending=17
2ms late start
2.11ms prod done
2.76ms cons timeout
3ms cb-w1 deliver accepted=true
3ms w1 wait returned v1 <nil>
3ms w2 wait returned <nil> sim: timeout
3ms cb-w2 deliver accepted=false
3ms a woke
3ms cons got from-a
3ms b woke
3ms cons got from-b
3ms u1 released
3ms u2 holding
3ms late woke
4ms cb-fan delivered
4ms f2 woken with 2
4ms f1 woken with 1
4ms f0 woken with 0
4ms cb-fan spawned task runs after the woken
4ms g2 done
4ms f1 after zero sleep
4.06ms u3 gave up: sim: timeout
4.2ms cons timeout
4.5ms u2 released
4.5ms main segment 2 returned, pending=5
5.4ms cons timeout
6ms cb-tie before sleeper
6ms tie woke
6ms tie-child runs before the zero-delay callback
6ms g3 done
6ms wg all done err=<nil>
6ms cb-tie zero-delay callback
6ms tie woke again
6.6ms cons timeout
7.8ms cons timeout
9ms cb-close close
9ms cons closed
9ms main drained, pending=0
`

func TestInterleavingOrderGolden(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got := strings.Join(interleaveScenario(), "\n")
			if got != strings.TrimSpace(goldenInterleave) {
				t.Fatalf("interleaving order changed; got:\n%s", got)
			}
		})
	}
}
