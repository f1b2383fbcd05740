package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// exactQuantile is the nearest-rank order statistic, mirroring
// feedback.Quantile: the sample at index ceil(q*n)-1 of the sorted
// slice.
func exactQuantile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(q*float64(n) + 0.9999999)
	idx--
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// TestQuantilePinnedToExact is the property test from the issue: for
// random sample sets spanning the tracked range, every histogram
// quantile must sit within one bucket's relative error (±1/32) of the
// exact sorted-sample nearest-rank quantile.
func TestQuantilePinnedToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	quantiles := []float64{0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		var h Histogram
		samples := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			// log-uniform over ~10 µs … 60 s, the span of simulated
			// protocol rounds.
			exp := 4 + rng.Float64()*6.78 // 10^4 … 10^10.78 ns
			v := time.Duration(math.Pow(10, exp))
			samples = append(samples, v)
			h.Observe(v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		s := h.snapshot()
		if s.N != int64(n) {
			t.Fatalf("trial %d: snapshot N=%d want %d", trial, s.N, n)
		}
		for _, q := range quantiles {
			exact := exactQuantile(samples, q)
			est := s.Quantile(q)
			tol := float64(exact) / 32
			if diff := float64(est - exact); diff > tol || diff < -tol {
				t.Fatalf("trial %d q=%.2f: est %v exact %v (diff beyond ±1/32)",
					trial, q, est, exact)
			}
		}
	}
}

func TestBucketIndexMonotonicAndMidInBucket(t *testing.T) {
	prev := -1
	for v := int64(1); v < int64(200*time.Second); v = v*5/4 + 1 {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotonic at %d: %d < %d", v, i, prev)
		}
		prev = i
		if i > 0 && i < numBuckets-1 {
			mid := bucketMid(i)
			if bucketIndex(mid) != i {
				t.Fatalf("bucketMid(%d)=%d maps to bucket %d", i, mid, bucketIndex(mid))
			}
		}
	}
}

func TestUnderflowOverflowClamp(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(time.Nanosecond)
	h.Observe(10 * time.Minute)
	s := h.snapshot()
	if s.Counts[0] != 2 {
		t.Fatalf("underflow bucket = %d, want 2", s.Counts[0])
	}
	if s.Counts[numBuckets-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.Counts[numBuckets-1])
	}
	if got := s.Quantile(1.0); got != time.Duration(bucketMid(numBuckets-1)) {
		t.Fatalf("max quantile = %v, want top-bucket midpoint", got)
	}
}

func TestSnapshotAddSubMean(t *testing.T) {
	var a, b Histogram
	for i := 1; i <= 100; i++ {
		a.Observe(time.Duration(i) * time.Millisecond)
	}
	for i := 101; i <= 200; i++ {
		b.Observe(time.Duration(i) * time.Millisecond)
	}
	sa, sb := a.snapshot(), b.snapshot()
	merged := sa.clone()
	merged.Add(sb)
	if merged.N != 200 {
		t.Fatalf("merged N=%d", merged.N)
	}
	wantSum := int64(0)
	for i := 1; i <= 200; i++ {
		wantSum += int64(i) * int64(time.Millisecond)
	}
	if merged.Sum != wantSum {
		t.Fatalf("merged Sum=%d want %d (exact ns sum must survive merge)", merged.Sum, wantSum)
	}
	if got := merged.Mean(); got != time.Duration(wantSum/200) {
		t.Fatalf("Mean=%v", got)
	}
	back := merged.Sub(sb)
	if *back != *sa {
		t.Fatal("Sub did not invert Add")
	}
	// Commutativity: B then A equals A then B.
	m2 := sb.clone()
	m2.Add(sa)
	if *m2 != *merged {
		t.Fatal("Add is not commutative")
	}
}

func TestNilSnapshotSafe(t *testing.T) {
	var s *HistSnapshot
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Count() != 0 || s.clone() != nil {
		t.Fatal("nil snapshot must read as empty")
	}
	d := s.Sub(nil)
	if d == nil || d.N != 0 {
		t.Fatal("nil.Sub(nil) must be an empty delta")
	}
	var dst HistSnapshot
	dst.Add(nil) // must not panic
	if dst.N != 0 {
		t.Fatal("Add(nil) must be a no-op")
	}
}

// denseHist is the pre-sparse layout — one counter per bucket — kept as
// the reference the sparse Histogram must match bucket for bucket.
type denseHist struct {
	counts [numBuckets]int64
	n, sum int64
}

func (h *denseHist) observe(d time.Duration) {
	h.counts[bucketIndex(d.Nanoseconds())]++
	h.n++
	h.sum += d.Nanoseconds()
}

func (h *denseHist) snapshot() *HistSnapshot {
	return &HistSnapshot{Counts: h.counts, N: h.n, Sum: h.sum}
}

// boundaryDurations covers the underflow bucket, every octave edge (one
// below, on, one above) and the top clamp.
func boundaryDurations() []time.Duration {
	ds := []time.Duration{-time.Second, -1, 0, 1, 1<<minExp - 1, 1 << 62, time.Duration(math.MaxInt64)}
	for e := minExp; e <= maxExp+1; e++ {
		for _, off := range []int64{-1, 0, 1} {
			ds = append(ds, time.Duration(int64(1)<<e+off))
		}
		ds = append(ds, time.Duration(int64(1)<<e+int64(1)<<(e-subBits)-1)) // last ns of the first sub-bucket
	}
	return ds
}

// TestSparseMatchesDenseReference: over boundary and random durations
// the sparse Histogram equals the dense reference in every bucket, N
// and Sum, through Snapshot, AddTo, Sub and Quantile.
func TestSparseMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		var h Histogram
		var ref denseHist
		var ds []time.Duration
		if trial%2 == 0 {
			ds = boundaryDurations()
		}
		// Odd trials confine the random draws to a few octaves so most
		// blocks stay unallocated; even ones add the full range.
		lo, span := 0.0, 63.0
		if trial%2 == 1 {
			lo, span = float64(minExp+rng.Intn(numOctaves)), 1+2*rng.Float64()
		}
		for i, n := 0, rng.Intn(3000); i < n; i++ {
			ds = append(ds, time.Duration(math.Exp2(lo+rng.Float64()*span)))
		}
		var prevGot, prevWant *HistSnapshot
		for i, d := range ds {
			h.Observe(d)
			ref.observe(d)
			if i == len(ds)/2 {
				prevGot, prevWant = h.snapshot(), ref.snapshot()
			}
		}
		got, want := h.snapshot(), ref.snapshot()
		if *got != *want {
			t.Fatalf("trial %d: sparse snapshot differs from the dense reference", trial)
		}
		// AddTo into a non-empty aggregate ≡ Add of the snapshot.
		agg, aggWant := prevGot.clone(), prevWant.clone()
		h.AddTo(agg)
		aggWant.Add(want)
		if *agg != *aggWant {
			t.Fatalf("trial %d: AddTo differs from Add(Snapshot())", trial)
		}
		if *got.Sub(prevGot) != *want.Sub(prevWant) {
			t.Fatalf("trial %d: Sub differs", trial)
		}
		for _, q := range []float64{0, 0.001, 0.5, 0.95, 0.999, 1} {
			if got.Quantile(q) != want.Quantile(q) {
				t.Fatalf("trial %d: Quantile(%v) %v want %v", trial, q, got.Quantile(q), want.Quantile(q))
			}
		}
	}
}

// TestHistogramStaysSparse pins the point of the layout: an unobserved
// histogram holds no octave, a one-octave one holds one, and Observe
// allocates only on an octave's first touch.
func TestHistogramStaysSparse(t *testing.T) {
	var h Histogram
	if sz := unsafe.Sizeof(h); sz > 256 {
		t.Errorf("empty Histogram is %d bytes, want ≤ 256", sz)
	}
	held := func() (n int) {
		for o := range h.octaves {
			if h.octaves[o].Load() != nil {
				n++
			}
		}
		return n
	}
	h.Observe(time.Microsecond) // underflow bucket: no octave
	if held() != 0 {
		t.Fatalf("underflow observation allocated %d octaves", held())
	}
	h.Observe(100 * time.Millisecond)
	h.Observe(130 * time.Millisecond)
	if held() != 1 {
		t.Fatalf("one octave observed, %d held", held())
	}
	if a := testing.AllocsPerRun(100, func() { h.Observe(110 * time.Millisecond) }); a != 0 {
		t.Errorf("Observe into a touched octave allocates %v", a)
	}
	var agg HistSnapshot
	if a := testing.AllocsPerRun(100, func() { h.AddTo(&agg) }); a != 0 {
		t.Errorf("AddTo allocates %v", a)
	}
}

// TestConcurrentFirstTouch races many goroutines onto the same cold
// octaves (run under -race): every observation must land in the one
// block that wins the install.
func TestConcurrentFirstTouch(t *testing.T) {
	const workers, per = 8, 2000
	for round := 0; round < 20; round++ {
		var h Histogram
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < per; i++ {
					h.Observe(time.Duration(1) << (minExp + i%numOctaves))
				}
			}()
		}
		close(start)
		wg.Wait()
		s := h.snapshot()
		var total int64
		for _, c := range s.Counts {
			total += c
		}
		if s.N != workers*per || total != s.N {
			t.Fatalf("round %d: N=%d bucket total=%d, want %d", round, s.N, total, workers*per)
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	d := 137 * time.Millisecond
	for i := 0; i < b.N; i++ {
		h.Observe(d)
	}
}

// snapshot copies the current counts into an immutable snapshot.
func (h *Histogram) snapshot() *HistSnapshot {
	s := &HistSnapshot{}
	h.AddTo(s)
	return s
}
