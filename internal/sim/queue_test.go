package sim

import (
	"testing"
	"time"
)

// TestCancelledWheelTimersBounded pins exact wheel cancellation:
// mass-cancelling wheel-resident timers beside a large live heap
// population leaves no residue at all. Each Stop unlinks its event from
// the slot chain and recycles it, so the wheel's count stays equal to its
// live events (here none) instead of waiting for a band drain or a purge.
func TestCancelledWheelTimersBounded(t *testing.T) {
	s := New(t0, 1)

	// A live heap population: beyond-horizon sentinels live in the heap's
	// long-range overflow tier and never migrate to the wheel.
	const liveHeap = 1000
	for i := 0; i < liveHeap; i++ {
		s.At(t0.Add(365*24*time.Hour+time.Duration(i)*time.Second), func() {})
	}

	// Churn: schedule minutes-scale timers (wheel level 1) and cancel
	// them immediately.
	const churn = 50000
	for i := 0; i < churn; i++ {
		tm := s.After(10*time.Minute+time.Duration(i)*time.Millisecond, func() {
			t.Error("cancelled wheel timer fired")
		})
		if !tm.Stop() {
			t.Fatalf("Stop() = false for live timer %d", i)
		}
	}

	s.mu.Lock()
	count, err := s.q.wheel.count, checkWheel(&s.q)
	heapLen, free := len(s.q.events), len(s.q.free)
	s.mu.Unlock()

	if count != 0 || err != nil {
		t.Fatalf("wheel holds %d events after %d cancelled timers (%v); want 0", count, churn, err)
	}
	if heapLen != liveHeap {
		t.Fatalf("heap holds %d events; want the %d live ones", heapLen, liveHeap)
	}
	if free != 1 {
		t.Fatalf("freelist holds %d events; every cancel must recycle the one event the next schedule reuses", free)
	}
	if got := s.pending(); got != liveHeap {
		t.Fatalf("Pending() = %d; want %d (cancelled wheel timers must not count)", got, liveHeap)
	}
}

// TestCancelledTimersSplitAcrossTiers drives cancellation churn through
// both tiers at once — sub-tick delays land in the heap, minute-scale
// delays in the wheel. The wheel keeps no residue; the heap's tombstones
// stay under its floor-plus-majority compaction bound.
func TestCancelledTimersSplitAcrossTiers(t *testing.T) {
	s := New(t0, 2)
	const rounds = 30000
	for i := 0; i < rounds; i++ {
		var tm Timer
		if i%2 == 0 {
			tm = s.After(time.Duration(1+i%100)*time.Microsecond, func() {}) // sub-tick: heap
		} else {
			tm = s.After(time.Hour+time.Duration(i)*time.Millisecond, func() {}) // wheel
		}
		tm.Stop()
	}
	s.mu.Lock()
	count, err := s.q.wheel.count, checkWheel(&s.q)
	heapLen, heapDead := len(s.q.events), s.q.dead
	s.mu.Unlock()
	if count != 0 || err != nil {
		t.Fatalf("wheel holds %d events after %d split cancels (%v); want 0", count, rounds, err)
	}
	if bound := 2*purgeFloor + 16; heapLen > bound {
		t.Fatalf("heap holds %d events (%d dead) after %d split cancels; want <= %d",
			heapLen, heapDead, rounds, bound)
	}
	if got := s.pending(); got != 0 {
		t.Fatalf("Pending() = %d after cancelling everything; want 0", got)
	}

	// The queue must still fire live work correctly after heavy purging.
	fired := 0
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i+1)*time.Minute, func() { fired++ })
	}
	s.RunUntil(t0.Add(2 * time.Hour))
	if fired != 64 {
		t.Fatalf("fired %d of 64 live timers after purge churn", fired)
	}
}

// TestStoppedWheelTimersLeaveLaneIdle pins what exact cancellation buys
// the sharded engine: a lane holding only stopped wheel timers reports no
// work at all, and a lane with one live timer behind many stopped ones
// bounds the next epoch by the live one alone.
func TestStoppedWheelTimersLeaveLaneIdle(t *testing.T) {
	nop := func(any) {}
	eng := NewSharded(t0, 1, 1, 10*time.Millisecond)
	lane := eng.Shard(0)
	delays := []time.Duration{2 * time.Millisecond, 3 * time.Second, 10 * time.Minute, 5 * time.Hour}
	var stopped []ShardTimer
	for i := 0; i < 400; i++ {
		stopped = append(stopped, lane.AfterArg(delays[i%len(delays)]+time.Duration(i)*time.Millisecond, nop, nil))
	}
	for _, tm := range stopped {
		tm.Stop()
	}
	if b := lane.q.earliestBound(); b != noLimit {
		t.Fatalf("earliestBound() = %d with only stopped wheel timers; want noLimit", b)
	}
	if p := lane.q.pending(); p != 0 {
		t.Fatalf("pending() = %d with only stopped wheel timers; want 0", p)
	}

	// Read the bound while the doomed timers are live, so the wheel caches
	// the earliest of their bands; emptying that slot must drop the cache.
	live := 20 * time.Hour
	lane.AfterArg(live, nop, nil)
	stopped = stopped[:0]
	for i := 0; i < 400; i++ {
		stopped = append(stopped, lane.AfterArg(delays[i%len(delays)]+time.Duration(i)*time.Millisecond, nop, nil))
	}
	if b := lane.q.earliestBound(); b >= t0.Add(live).UnixNano() {
		t.Fatalf("earliestBound() = %d before the stops; want an earlier band", b)
	}
	for _, tm := range stopped {
		tm.Stop()
	}
	liveKey := t0.Add(live).UnixNano()
	band := liveKey &^ (int64(1)<<wheelGeometry[2].lowBit - 1)
	if b := lane.q.earliestBound(); b != band {
		t.Fatalf("earliestBound() = %d; want the live timer's band start %d", b, band)
	}
	if p := eng.Pending(); p != 1 {
		t.Fatalf("Pending() = %d; want 1", p)
	}
}
