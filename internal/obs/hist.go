package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket layout: log-linear ("HDR-style") buckets over nanosecond
// durations. Each power-of-two octave [2^e, 2^(e+1)) is split into
// subCount equal sub-buckets, so the relative width of any bucket is
// 1/subCount ≈ 3.1% and a quantile read off a bucket midpoint is
// within ±1.6% of the true sample. The tracked range is bounded:
// durations below 2^minExp ns (≈ 8.2 µs — under any simulated RPC)
// share one underflow bucket, durations at or above 2^(maxExp+1) ns
// (≈ 137 s — past every scenario deadline) clamp into the top bucket.
// That bounds the layout at numBuckets (769) buckets. A live Histogram
// stores them sparsely — one block of subCount counters per octave,
// allocated when the octave is first observed — because most holders
// (an endpoint per peer, a call counter per service per client) see a
// handful of octaves or none: ~200 bytes empty, +256 per octave touched,
// against 6 KB dense. Only a HistSnapshot, of which a run keeps a few
// per service, is dense.
const (
	subBits    = 5
	subCount   = 1 << subBits // sub-buckets per octave
	minExp     = 13           // lowest tracked octave: 2^13 ns ≈ 8.2 µs
	maxExp     = 36           // highest tracked octave: [2^36, 2^37) ns ≈ 68.7–137 s
	numOctaves = maxExp - minExp + 1
	numBuckets = 1 + numOctaves*subCount
)

// bucketIndex maps a nanosecond duration to its bucket.
func bucketIndex(v int64) int {
	if v < 1<<minExp {
		return 0
	}
	exp := bits.Len64(uint64(v)) - 1
	if exp > maxExp {
		return numBuckets - 1
	}
	sub := int(v>>(uint(exp)-subBits)) & (subCount - 1)
	return 1 + (exp-minExp)*subCount + sub
}

// bucketMid returns the representative (midpoint) duration of a bucket.
func bucketMid(i int) int64 {
	if i <= 0 {
		return 1 << (minExp - 1)
	}
	oct := uint((i-1)/subCount) + minExp
	sub := int64((i - 1) % subCount)
	width := int64(1) << (oct - subBits)
	lo := int64(1)<<oct + sub*width
	return lo + width/2
}

// octave holds the subCount counters of one power-of-two octave.
type octave [subCount]atomic.Int64

// Histogram is a concurrency-safe fixed-bucket latency histogram.
// Observe is lock-free (two atomic adds) and allocation-free except
// for the first observation in each octave, so it can sit on request
// hot paths. The zero value is ready to use.
type Histogram struct {
	under   atomic.Int64                       // bucket 0
	octaves [numOctaves]atomic.Pointer[octave] // buckets 1…; nil until first observed
	sum     atomic.Int64                       // exact nanosecond sum, kept alongside the buckets
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	v := d.Nanoseconds()
	if i := bucketIndex(v) - 1; i < 0 {
		h.under.Add(1)
	} else {
		b := h.octaves[i>>subBits].Load()
		if b == nil {
			b = h.install(i >> subBits)
		}
		b[i&(subCount-1)].Add(1)
	}
	h.sum.Add(v)
}

// install allocates octave o's counters on its first observation.
// Racing first observers agree on one block through the CAS; the
// loser's allocation is dropped.
func (h *Histogram) install(o int) *octave {
	b := new(octave)
	if h.octaves[o].CompareAndSwap(nil, b) {
		return b
	}
	return h.octaves[o].Load()
}

// AddTo merges the current counts into s without materialising a
// snapshot of h — the roll-up form: one aggregate per service, every
// holder added straight into it. The observation count is the sum of
// the buckets read, so Observe keeps no counter of its own for it.
func (h *Histogram) AddTo(s *HistSnapshot) {
	n := h.under.Load()
	s.Counts[0] += n
	for o := range h.octaves {
		if b := h.octaves[o].Load(); b != nil {
			dst := s.Counts[1+o*subCount:]
			for i := range b {
				c := b[i].Load()
				dst[i] += c
				n += c
			}
		}
	}
	s.N += n
	s.Sum += h.sum.Load()
}

// Snapshot copies the current counts into an immutable snapshot.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{}
	h.AddTo(s)
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram. Snapshots
// support commutative merge (Add) and monotonic subtraction (Sub), so
// per-interval and per-phase distributions fall out of snapshot
// deltas. All methods tolerate a nil receiver (an endpoint that never
// recorded), returning zeros.
type HistSnapshot struct {
	Counts [numBuckets]int64
	N      int64
	Sum    int64
}

// Add merges another snapshot into s. Bucket-wise addition commutes,
// so aggregating many sources in any order yields identical results.
func (s *HistSnapshot) Add(o *HistSnapshot) {
	if o == nil {
		return
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.N += o.N
	s.Sum += o.Sum
}

// Sub returns the delta s − prev (counts are monotonic, so the delta
// is the distribution of observations between the two snapshots).
// A nil prev acts as an empty snapshot.
func (s *HistSnapshot) Sub(prev *HistSnapshot) *HistSnapshot {
	d := &HistSnapshot{}
	if s == nil {
		return d
	}
	*d = *s
	if prev != nil {
		for i, c := range prev.Counts {
			d.Counts[i] -= c
		}
		d.N -= prev.N
		d.Sum -= prev.Sum
	}
	return d
}

// Clone returns an independent copy (nil-safe).
func (s *HistSnapshot) Clone() *HistSnapshot {
	if s == nil {
		return nil
	}
	c := *s
	return &c
}

// Quantile estimates the q-quantile using the same nearest-rank rule
// as feedback.Quantile: the sample at rank ceil(q·n), clamped to
// [1, n]. The returned value is the midpoint of the bucket holding
// that rank, so it is within half a bucket width (±1.6%) of the exact
// order statistic. Returns 0 when the snapshot is nil or empty.
func (s *HistSnapshot) Quantile(q float64) time.Duration {
	if s == nil || s.N == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.N)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.N {
		rank = s.N
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			return time.Duration(bucketMid(i))
		}
	}
	return time.Duration(bucketMid(numBuckets - 1))
}

// Mean returns the exact mean duration (from the precise sum, not the
// bucket midpoints). Returns 0 when nil or empty.
func (s *HistSnapshot) Mean() time.Duration {
	if s == nil || s.N == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.N)
}

// Count returns the number of recorded observations (nil-safe).
func (s *HistSnapshot) Count() int64 {
	if s == nil {
		return 0
	}
	return s.N
}
