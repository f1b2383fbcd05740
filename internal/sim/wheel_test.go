package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The timer wheel is transparent: callers see the same Scheduler API and
// the same firing order as the plain heap. These tests pin the edges
// where transparency is easiest to lose — cancellation of an event that
// has cascaded between levels, keys landing exactly on band boundaries,
// and mixed wheel/heap populations.

// TestWheelStopAcrossCascade cancels timers after they have cascaded
// from a high wheel level toward a lower one. The generation check must
// keep Stop effective no matter which tier currently holds the event.
func TestWheelStopAcrossCascade(t *testing.T) {
	s := New(t0, 1)
	// pick returns a delay near base whose key sits comfortably inside
	// its level-band (≥10ms past the band start), so a filler event at
	// the band start forces the cascade without reaching the deadline.
	pick := func(base time.Duration, level int) (time.Duration, int64) {
		for d := base; ; d += 7 * time.Second {
			key := t0.Add(d).UnixNano()
			band := key &^ (1<<wheelGeometry[level].lowBit - 1)
			if key-band > 10*int64(time.Millisecond) {
				return d, band
			}
		}
	}
	// B: L1-resident (50m out); A: L2-resident (3h out); C: beyond the
	// wheel horizon (heap-resident).
	dB, bandB := pick(50*time.Minute, 1)
	dA, bandA2 := pick(3*time.Hour, 2)
	tmB := s.After(dB, func() { t.Error("stopped timer B fired") })
	tmA := s.After(dA, func() { t.Error("stopped timer A fired") })
	tmC := s.After(90*24*time.Hour, func() { t.Error("stopped timer C fired") })

	// Cross B's L1 band start: popping the filler drains the band and
	// relinks B into L0. Then stop it mid-cascade.
	s.After(time.Duration(bandB-t0.UnixNano()), func() {})
	s.RunUntil(time.Unix(0, bandB).UTC().Add(time.Millisecond))
	if !tmB.Stop() {
		t.Fatal("Stop() = false on cascaded L1→L0 timer")
	}
	// Cross A's L2 band start (relinks into L1), then its L1 band start
	// (relinks into L0), stopping it only after both cascades.
	s.After(time.Duration(bandA2-t0.UnixNano()), func() {})
	s.RunUntil(time.Unix(0, bandA2).UTC().Add(time.Millisecond))
	keyA := t0.Add(dA).UnixNano()
	bandA1 := keyA &^ (1<<wheelGeometry[1].lowBit - 1)
	s.At(time.Unix(0, bandA1).UTC(), func() {})
	s.RunUntil(time.Unix(0, bandA1).UTC().Add(time.Millisecond))
	if !tmA.Stop() {
		t.Fatal("Stop() = false on cascaded L2→L1→L0 timer")
	}
	if !tmC.Stop() {
		t.Fatal("Stop() = false on beyond-horizon heap timer")
	}
	for i, tm := range []Timer{tmA, tmB, tmC} {
		if tm.Stop() {
			t.Fatalf("timer %d: second Stop() = true", i)
		}
	}
	s.Run()
	if got := s.pending(); got != 0 {
		t.Fatalf("Pending() = %d after run; want 0", got)
	}
}

// TestWheelZeroDelayTimers pins the below-one-tick path: zero (and
// negative) delays bypass the wheel, fire at the current virtual time,
// and keep FIFO order with other same-time events.
func TestWheelZeroDelayTimers(t *testing.T) {
	s := New(t0, 1)
	var got []int
	s.After(0, func() {
		got = append(got, 0)
		// Zero-delay from inside an event: fires this same instant,
		// after everything already queued for it.
		s.After(0, func() { got = append(got, 2) })
	})
	s.After(-time.Second, func() { got = append(got, 1) })
	s.Run()
	if !s.Now().Equal(t0) {
		t.Fatalf("clock moved to %v firing zero-delay timers", s.Now())
	}
	for i, want := range []int{0, 1, 2} {
		if i >= len(got) || got[i] != want {
			t.Fatalf("zero-delay order = %v, want [0 1 2]", got)
		}
	}
}

// TestWheelBandBoundaries schedules events exactly on the power-of-two
// edges between tiers — the last nanosecond before a boundary, the
// boundary itself, and one past the wheel horizon — and requires perfect
// timestamp order and exact firing times.
func TestWheelBandBoundaries(t *testing.T) {
	s := New(t0, 1)
	tick := time.Duration(1) << wheelTickBits
	boundaries := []time.Duration{
		tick - 1, tick, tick + 1, // heap/L0 edge
		time.Duration(1)<<32 - 1, 1 << 32, 1<<32 + 1, // L0/L1 edge
		time.Duration(1)<<42 - 1, 1 << 42, 1<<42 + 1, // L1/L2 edge
		time.Duration(1)<<52 - 1, 1 << 52, 1<<52 + 1, // horizon: wheel/heap
	}
	type firing struct {
		idx int
		at  time.Time
	}
	var got []firing
	for i, d := range boundaries {
		i, d := i, d
		s.After(d, func() { got = append(got, firing{i, s.Now()}) })
	}
	s.Run()
	if len(got) != len(boundaries) {
		t.Fatalf("fired %d of %d boundary timers", len(got), len(boundaries))
	}
	for pos, f := range got {
		if f.idx != pos {
			t.Fatalf("firing %d was timer %d; boundary timers out of order: %+v", pos, f.idx, got)
		}
		if want := t0.Add(boundaries[f.idx]); !f.at.Equal(want) {
			t.Fatalf("timer %d fired at %v, want %v", f.idx, f.at, want)
		}
	}
}

// TestWheelHeapEquivalence is the transparency property: a random mixed
// population spanning every tier (sub-tick heap, all three wheel levels,
// beyond-horizon heap), with random cancellations, must fire in exactly
// the order a sorted (time, schedule-seq) model predicts.
func TestWheelHeapEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spans := []time.Duration{
		100 * time.Nanosecond, // below one tick: heap
		500 * time.Millisecond,
		2 * time.Second,     // L0
		30 * time.Minute,    // L1
		20 * time.Hour,      // L2
		80 * 24 * time.Hour, // beyond horizon: heap
	}
	const n = 4000
	s := New(t0, 1)
	type ev struct {
		idx int
		at  time.Duration
	}
	var want []ev
	var got []int
	stopped := make([]bool, n)
	timers := make([]Timer, n)
	for i := 0; i < n; i++ {
		i := i
		span := spans[rng.Intn(len(spans))]
		d := time.Duration(rng.Int63n(int64(span))) + 1
		timers[i] = s.After(d, func() { got = append(got, i) })
		want = append(want, ev{i, d})
	}
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			stopped[i] = true
			if !timers[i].Stop() {
				t.Fatalf("Stop() = false on live timer %d", i)
			}
		}
	}
	s.Run()
	// Model: surviving events sorted by (fire time, schedule order).
	want2 := want[:0]
	for _, e := range want {
		if !stopped[e.idx] {
			want2 = append(want2, e)
		}
	}
	sort.SliceStable(want2, func(a, b int) bool { return want2[a].at < want2[b].at })
	if len(got) != len(want2) {
		t.Fatalf("fired %d events, model predicts %d", len(got), len(want2))
	}
	for i := range got {
		if got[i] != want2[i].idx {
			t.Fatalf("firing %d was timer %d, model predicts %d", i, got[i], want2[i].idx)
		}
	}
}

// TestWheelStressMixedTiers churns timers across every tier with heavy
// cancellation from many simulated goroutines — run under -race it also
// checks the wheel's lock discipline. The invariant at the end is full
// drainage: every live timer fired exactly once, Pending is zero.
func TestWheelStressMixedTiers(t *testing.T) {
	s := New(t0, 99)
	delays := []time.Duration{
		50 * time.Microsecond, 3 * time.Millisecond, time.Second,
		45 * time.Second, 12 * time.Minute, 4 * time.Hour,
	}
	fired := 0
	expect := 0
	const loops, perLoop = 40, 25
	for g := 0; g < loops; g++ {
		g := g
		s.Go(func() {
			for i := 0; i < perLoop; i++ {
				d := delays[(g+i)%len(delays)]
				jitter := time.Duration(s.intn(1000)) * time.Microsecond
				keep := s.After(d+jitter, func() { fired++ })
				kill := s.After(d*2+jitter, func() { t.Error("cancelled timer fired") })
				if !kill.Stop() {
					t.Error("Stop() = false on live timer")
				}
				_ = keep
				s.Sleep(time.Duration(s.intn(int(d) + 1)))
			}
		})
		expect += perLoop
	}
	s.Run()
	if fired != expect {
		t.Fatalf("fired %d of %d timers", fired, expect)
	}
	if got := s.pending(); got != 0 {
		t.Fatalf("Pending() = %d after full run; want 0", got)
	}
}
