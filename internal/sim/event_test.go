package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// TestEventLayout pins the event at one cache line: a 256-event slab is
// then 16 KiB, an exact malloc size class. A field added later must be a
// deliberate decision, not a silent 33 % growth of every timer. state
// must hold the wheel position below a generation of at least 48 bits.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 64 {
		t.Errorf("event is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof([eventSlab]event{}); got != 16<<10 {
		t.Errorf("an event slab is %d bytes, want 16 KiB", got)
	}
	maxPos := (wheelLevels-1)<<evSlotBits | 1<<evSlotBits - 1
	if bits.Len(uint(maxPos)) > evGenShift-evPosShift {
		t.Errorf("wheel position %#x does not fit in %d bits", maxPos, evGenShift-evPosShift)
	}
	for _, g := range wheelGeometry {
		if g.bits > evSlotBits {
			t.Errorf("a level of %d slot bits does not fit the %d-bit slot field", g.bits, evSlotBits)
		}
	}
	if genBits := 64 - evGenShift; genBits < 48 {
		t.Errorf("the generation has %d bits, want at least 48", genBits)
	}
}

// tenantEngine is what TestStaleTimerCannotStopNextTenant needs from an
// engine: arm a timer (returning its handle's Stop and the event behind
// it) and run everything due within the next hour.
type tenantEngine struct {
	arm func(d time.Duration, fn func()) (stop func() bool, ev *event)
	run func()
}

// TestStaleTimerCannotStopNextTenant recycles the event behind a Timer
// and a ShardTimer — one that fired and one that was stopped, on the heap
// tier (sub-tick delay) or a wheel level — into a new timer on either
// tier. The old handle's Stop must report false and leave the new timer
// to fire.
func TestStaleTimerCannotStopNextTenant(t *testing.T) {
	engines := []struct {
		name string
		new  func() tenantEngine
	}{
		{"Timer", func() tenantEngine {
			s := New(t0, 1)
			return tenantEngine{
				arm: func(d time.Duration, fn func()) (func() bool, *event) {
					tm := s.After(d, fn)
					return tm.Stop, tm.ev
				},
				run: func() { s.RunUntil(s.Now().Add(time.Hour)) },
			}
		}},
		{"ShardTimer", func() tenantEngine {
			eng := NewSharded(t0, 1, 1, time.Millisecond)
			lane := eng.Shard(0)
			return tenantEngine{
				arm: func(d time.Duration, fn func()) (func() bool, *event) {
					tm := lane.AfterArg(d, func(any) { fn() }, nil)
					return tm.Stop, tm.ev
				},
				run: func() { eng.Run(time.Unix(0, lane.nowKey).Add(time.Hour)) },
			}
		}},
	}
	tiers := []struct {
		name  string
		d     time.Duration
		wheel bool
	}{{"heap", 100 * time.Microsecond, false}, {"wheel", 10 * time.Second, true}}
	for _, e := range engines {
		for _, stopped := range []bool{false, true} {
			for _, old := range tiers {
				for _, next := range tiers {
					name := fmt.Sprintf("%s stopped=%v %s->%s", e.name, stopped, old.name, next.name)
					eng := e.new()
					var (
						stopOld            func() bool
						oldEv              *event
						oldFired, newFired int
					)
					// Stopping the old timer from a callback due first
					// lets a lane reach its heap tombstone: a lane holding
					// nothing live is not run. Either way the old event is
					// the last one released, so the next arm reuses it.
					eng.arm(0, func() {
						if stopped && !stopOld() {
							t.Errorf("%s: Stop of the pending timer reported false", name)
						}
					})
					stopOld, oldEv = eng.arm(old.d, func() { oldFired++ })
					if inWheel := oldEv.state&evInWheel != 0; inWheel != old.wheel {
						t.Fatalf("%s: old timer in wheel = %v", name, inWheel)
					}
					eng.run()
					if want := int(b2i(!stopped)); oldFired != want {
						t.Fatalf("%s: old timer fired %d times, want %d", name, oldFired, want)
					}
					stopNew, newEv := eng.arm(next.d, func() { newFired++ })
					if newEv != oldEv {
						t.Fatalf("%s: the new timer did not recycle the old one's event", name)
					}
					if inWheel := newEv.state&evInWheel != 0; inWheel != next.wheel {
						t.Fatalf("%s: new timer in wheel = %v", name, inWheel)
					}
					if stopOld() {
						t.Errorf("%s: the stale handle stopped its event's next tenant", name)
					}
					eng.run()
					if newFired != 1 || oldFired != int(b2i(!stopped)) {
						t.Errorf("%s: new timer fired %d times, old %d", name, newFired, oldFired)
					}
					if stopNew() || stopOld() {
						t.Errorf("%s: Stop after the run reported true", name)
					}
				}
			}
		}
	}
}

// TestDispatchAtOneInstant puts every kind of scheduler event due at one
// instant — a plain At callback, an AfterArg callback, a Sleep wake-up
// and a Waiter.Wait timeout — on the heap tier and on the wheel. Each
// fires exactly once, at that instant, in schedule order. A Deliver that
// beats its Wait's later timeout cancels it: nothing stays pending.
func TestDispatchAtOneInstant(t *testing.T) {
	for _, tier := range []struct {
		name  string
		d     time.Duration
		wheel int // events resident in the wheel once everything is armed
	}{{"heap", 100 * time.Microsecond, 0}, {"wheel", 10 * time.Second, 6}} {
		s := New(t0, 1)
		due := t0.Add(tier.d)
		var log []string
		rec := func(what string) {
			if now := s.Now(); !now.Equal(due) {
				t.Errorf("%s: %s ran at %v, want %v", tier.name, what, now, due)
			}
			log = append(log, what)
		}
		s.At(due, func() { rec("at") })
		s.Go(func() {
			s.Sleep(tier.d)
			rec("sleep")
		})
		s.Go(func() {
			s.AfterArg(tier.d, func(arg any) { rec(arg.(string)) }, "afterArg")
			if _, err := s.NewWaiter().Wait(tier.d); err != ErrTimeout {
				t.Errorf("%s: Wait = %v, want ErrTimeout", tier.name, err)
			}
			rec("wait")
		})
		beaten := s.NewWaiter()
		s.Go(func() {
			v, err := beaten.Wait(2 * tier.d)
			if v != "delivered" || err != nil {
				t.Errorf("%s: beaten Wait = %v, %v", tier.name, v, err)
			}
		})
		s.After(tier.d/2, func() { beaten.Deliver("delivered") })
		s.RunUntil(t0)
		if got := s.q.wheel.count; got != tier.wheel {
			t.Fatalf("%s: %d events in the wheel, want %d", tier.name, got, tier.wheel)
		}
		s.RunUntil(due)
		if want := []string{"at", "sleep", "afterArg", "wait"}; !slices.Equal(log, want) {
			t.Errorf("%s: fired %v, want %v", tier.name, log, want)
		}
		if n := s.pending(); n != 0 {
			t.Errorf("%s: %d events pending after the instant; the beaten timeout must not count", tier.name, n)
		}
		s.Run()
		if len(log) != 4 {
			t.Errorf("%s: %d firings after the queue drained, want 4", tier.name, len(log))
		}
	}
}
