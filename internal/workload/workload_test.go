package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

var t0 = time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)

func TestDiurnalProfileShape(t *testing.T) {
	p := DiurnalProfile()
	// Evening peak beats daytime beats overnight trough.
	night := p(3)
	day := p(14)
	evening := p(20.75)
	if !(night < day && day < evening) {
		t.Fatalf("profile ordering broken: night=%v day=%v evening=%v", night, day, evening)
	}
	if evening < 0.9 {
		t.Fatalf("peak = %v, want ≈ 1", evening)
	}
	if night > 0.2 {
		t.Fatalf("trough = %v, want small", night)
	}
	// Bounded and periodic.
	for h := -24.0; h < 48; h += 0.5 {
		v := p(h)
		if v <= 0 || v > 1 {
			t.Fatalf("profile(%v) = %v out of (0,1]", h, v)
		}
		if math.Abs(v-p(h+24)) > 1e-12 {
			t.Fatalf("profile not 24h-periodic at %v", h)
		}
	}
}

func TestArrivalsFollowProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewArrivals(rng, DiurnalProfile(), 600, t0)
	// Count arrivals per hour over 3 simulated days.
	counts := make([]int, 24)
	now := t0
	end := t0.Add(72 * time.Hour)
	for now.Before(end) {
		gap := a.Next(now)
		now = now.Add(gap)
		h := int(now.Sub(t0).Hours()) % 24
		if now.Before(end) {
			counts[h]++
		}
	}
	if counts[21] < 4*counts[3] {
		t.Fatalf("evening %d vs overnight %d arrivals: diurnal shape lost", counts[21], counts[3])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total < 1000 {
		t.Fatalf("only %d arrivals over 3 days at peak 600/h", total)
	}
}

func TestArrivalsPositiveGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewArrivals(rng, DiurnalProfile(), 100, t0)
	now := t0
	for i := 0; i < 1000; i++ {
		gap := a.Next(now)
		if gap <= 0 {
			t.Fatalf("non-positive gap %v", gap)
		}
		now = now.Add(gap)
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z := NewZipf(rng, 1.3, 50)
	counts := make([]int, 50)
	for i := 0; i < 20000; i++ {
		idx := z.Pick()
		if idx < 0 || idx >= 50 {
			t.Fatalf("pick %d out of range", idx)
		}
		counts[idx]++
	}
	if counts[0] < 5*counts[10] {
		t.Fatalf("rank 0 (%d) not dominating rank 10 (%d)", counts[0], counts[10])
	}
	if counts[0] == 20000 {
		t.Fatal("all picks on one channel")
	}
}

func TestZipfDegenerateParams(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	z := NewZipf(rng, 0.5, 0) // clamped to s=1.2, n=1
	for i := 0; i < 100; i++ {
		if z.Pick() != 0 {
			t.Fatal("single-channel zipf picked nonzero")
		}
	}
}

func TestSessionsDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewSessions(rng, 40*time.Minute, 10*time.Minute)
	var sumD, sumZ time.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		d := s.Duration()
		if d < time.Minute {
			t.Fatalf("session %v below floor", d)
		}
		sumD += d
		z := s.ZapGap()
		if z < 10*time.Second {
			t.Fatalf("zap gap %v below floor", z)
		}
		sumZ += z
	}
	meanD := sumD / n
	if meanD < 30*time.Minute || meanD > 50*time.Minute {
		t.Fatalf("mean session %v, want ≈ 40m", meanD)
	}
	meanZ := sumZ / n
	if meanZ < 8*time.Minute || meanZ > 13*time.Minute {
		t.Fatalf("mean zap gap %v, want ≈ 10m", meanZ)
	}
}

func TestSessionsDefaults(t *testing.T) {
	s := NewSessions(rand.New(rand.NewSource(6)), 0, 0)
	if s.MeanDuration != 45*time.Minute || s.MeanZapGap != 15*time.Minute {
		t.Fatalf("defaults = %v, %v", s.MeanDuration, s.MeanZapGap)
	}
}

func TestFlashCrowdClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	offs := FlashCrowd(rng, 1000, 30*time.Second)
	within := 0
	for _, o := range offs {
		if o < 0 || o > time.Minute {
			t.Fatalf("offset %v outside [0, 2×spread]", o)
		}
		if o <= 30*time.Second {
			within++
		}
	}
	if within < 800 {
		t.Fatalf("only %d/1000 arrivals within the spread — not a flash crowd", within)
	}
}

func TestPickSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got := PickSubset(rng, 100, 10)
	if len(got) != 10 {
		t.Fatalf("len = %d, want 10", len(got))
	}
	seen := map[int]bool{}
	for i, v := range got {
		if v < 0 || v >= 100 {
			t.Fatalf("index %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate index %d", v)
		}
		seen[v] = true
		if i > 0 && got[i-1] >= v {
			t.Fatalf("not sorted ascending: %v", got)
		}
	}
	// Determinism: same seed, same subset.
	again := PickSubset(rand.New(rand.NewSource(1)), 100, 10)
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("same seed diverged: %v vs %v", got, again)
		}
	}
	// Clamping and edge cases.
	if s := PickSubset(rng, 5, 9); len(s) != 5 {
		t.Fatalf("k > n not clamped: %v", s)
	}
	if s := PickSubset(rng, 5, 0); s != nil {
		t.Fatalf("k = 0 should be nil, got %v", s)
	}
	if s := PickSubset(rng, 0, 3); s != nil {
		t.Fatalf("n = 0 should be nil, got %v", s)
	}
}
