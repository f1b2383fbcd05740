package obs

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// This file drives random programs of Observe, AddTo, Add, Sub and clone
// over a few live histograms and snapshots, each shadowed by a dense
// one-counter-per-bucket reference, and after every step checks the
// sparse values bucket for bucket, their canonical form (no all-zero
// block) and that no snapshot shares storage with a histogram or with
// another snapshot.

const (
	progHists = 2 // live histograms
	progSnaps = 4 // snapshot slots, nil until an op fills them
	progOps   = 7 // op kinds, the first byte of each step mod progOps
	progSteps = 96
)

// denseAdd adds o into h.
func (h *denseHist) add(o *denseHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// denseSub is the reference of s.Sub(prev): a nil s gives an empty
// delta, a nil prev reads as empty.
func denseSub(s, prev *denseHist) *denseHist {
	d := &denseHist{}
	if s == nil {
		return d
	}
	*d = *s
	if prev != nil {
		for i, c := range prev.counts {
			d.counts[i] -= c
		}
		d.n -= prev.n
		d.sum -= prev.sum
	}
	return d
}

// quantile is the dense layout's Quantile, kept as the reference.
func (h *denseHist) quantile(q float64) time.Duration {
	if h == nil || h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return time.Duration(bucketMid(i))
		}
	}
	return time.Duration(bucketMid(numBuckets - 1))
}

// histProgram is the state one program runs on.
type histProgram struct {
	hists [progHists]Histogram
	hRef  [progHists]denseHist
	snaps [progSnaps]*HistSnapshot
	sRef  [progSnaps]*denseHist
}

// duration maps two program bytes to a duration over the underflow
// bucket, every octave and the top clamp.
func duration(e, off byte) time.Duration {
	exp := int(e) % (maxExp + 4)
	v := int64(1) << exp
	if exp > 8 {
		v += int64(off) << (exp - 8)
	}
	return time.Duration(v)
}

// step runs one op read from p and returns its description.
func (pr *histProgram) step(p []byte) string {
	op, a, b, c := p[0]%progOps, int(p[1]), int(p[2]), p[3]
	h, i, j := (a>>4)%progHists, a%progSnaps, b%progSnaps
	switch op {
	case 0, 1: // Observe, twice as often as the rest
		d := duration(p[2], c)
		pr.hists[h].Observe(d)
		pr.hRef[h].observe(d)
		return fmt.Sprintf("h%d.Observe(%v)", h, d)
	case 2:
		if pr.snaps[j] == nil {
			pr.snaps[j], pr.sRef[j] = &HistSnapshot{}, &denseHist{}
		}
		pr.hists[h].AddTo(pr.snaps[j])
		pr.sRef[j].add(&pr.hRef[h])
		return fmt.Sprintf("h%d.AddTo(s%d)", h, j)
	case 3: // Add, into a nil target as svc's Merge does
		if pr.snaps[j] == nil {
			pr.snaps[j], pr.sRef[j] = &HistSnapshot{}, &denseHist{}
		}
		if pr.sRef[i] != nil {
			pr.sRef[j].add(pr.sRef[i]) // before the sparse Add: i may be j
		}
		pr.snaps[j].Add(pr.snaps[i])
		return fmt.Sprintf("s%d.Add(s%d)", j, i)
	case 4:
		k := int(c) % progSnaps
		pr.snaps[j], pr.sRef[j] = pr.snaps[i].Sub(pr.snaps[k]), denseSub(pr.sRef[i], pr.sRef[k])
		return fmt.Sprintf("s%d = s%d.Sub(s%d)", j, i, k)
	case 5:
		pr.snaps[j] = pr.snaps[i].clone()
		if r := pr.sRef[i]; r != nil {
			cp := *r
			pr.sRef[j] = &cp
		} else {
			pr.sRef[j] = nil
		}
		return fmt.Sprintf("s%d = s%d.clone()", j, i)
	default:
		pr.snaps[j] = pr.hists[h].snapshot()
		cp := pr.hRef[h]
		pr.sRef[j] = &cp
		return fmt.Sprintf("s%d = h%d.snapshot()", j, h)
	}
}

// matches checks a snapshot against its reference.
func matches(s *HistSnapshot, r *denseHist) error {
	if (s == nil) != (r == nil) {
		return fmt.Errorf("nil snapshot %v, reference nil %v", s == nil, r == nil)
	}
	if s == nil {
		return nil
	}
	for i := 0; i < numBuckets; i++ {
		if s.bucket(i) != r.counts[i] {
			return fmt.Errorf("bucket %d = %d, want %d", i, s.bucket(i), r.counts[i])
		}
	}
	if s.N != r.n || s.Sum != r.sum {
		return fmt.Errorf("N, Sum = %d, %d, want %d, %d", s.N, s.Sum, r.n, r.sum)
	}
	for _, q := range []float64{0.5, 0.95, 1} {
		if got, want := s.Quantile(q), r.quantile(q); got != want {
			return fmt.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	for o, b := range s.octaves {
		if b != nil && *b == (block{}) {
			return fmt.Errorf("octave %d holds an all-zero block", o)
		}
	}
	if !reflect.DeepEqual(s, r.snapshot()) {
		return fmt.Errorf("not deeply equal to the reference's snapshot")
	}
	return nil
}

// check holds every histogram and snapshot to its reference.
func (pr *histProgram) check() error {
	for h := range pr.hists {
		if err := matches(pr.hists[h].snapshot(), &pr.hRef[h]); err != nil {
			return fmt.Errorf("h%d: %v", h, err)
		}
	}
	for j := range pr.snaps {
		if err := matches(pr.snaps[j], pr.sRef[j]); err != nil {
			return fmt.Errorf("s%d: %v", j, err)
		}
	}
	return nil
}

// checkOwned writes into every bucket of each snapshot in turn and
// checks that no histogram and no other snapshot moved, then undoes the
// write.
func (pr *histProgram) checkOwned() error {
	for j, s := range pr.snaps {
		if s == nil {
			continue
		}
		bump := func(by int64) {
			s.under += by
			for _, b := range s.octaves {
				if b != nil {
					for i := range b {
						b[i] += by
					}
				}
			}
		}
		bump(1)
		err := pr.bucketsHeld(j)
		bump(-1)
		if err != nil {
			return fmt.Errorf("writing into s%d moved %v", j, err)
		}
	}
	return nil
}

// bucketsHeld compares the buckets of every histogram and of every
// snapshot but s<skip> with their references.
func (pr *histProgram) bucketsHeld(skip int) error {
	same := func(s *HistSnapshot, r *denseHist) bool {
		for i := 0; i < numBuckets; i++ {
			if s.bucket(i) != r.counts[i] {
				return false
			}
		}
		return true
	}
	for h := range pr.hists {
		if !same(pr.hists[h].snapshot(), &pr.hRef[h]) {
			return fmt.Errorf("h%d", h)
		}
	}
	for k, s := range pr.snaps {
		if k != skip && s != nil && !same(s, pr.sRef[k]) {
			return fmt.Errorf("s%d", k)
		}
	}
	return nil
}

// runHistProgram runs one program (four bytes a step) and fails at the
// first step whose state differs from the dense references.
func runHistProgram(t *testing.T, prog []byte) {
	t.Helper()
	var pr histProgram
	var trail []string
	for n := 0; len(prog) >= 4 && n < progSteps; n++ {
		trail = append(trail, pr.step(prog[:4]))
		prog = prog[4:]
		if err := pr.check(); err != nil {
			t.Fatalf("after %v: %v", trail, err)
		}
		if err := pr.checkOwned(); err != nil {
			t.Fatalf("after %v: %v", trail, err)
		}
	}
}

// TestHistSnapshotOpsMatchDense runs random programs through
// runHistProgram; FuzzHistSnapshot searches the same space.
func TestHistSnapshotOpsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		prog := make([]byte, 4*(1+rng.Intn(progSteps)))
		rng.Read(prog)
		runHistProgram(t, prog)
	}
}

func FuzzHistSnapshot(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		prog := make([]byte, 4*(8+8*i))
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(runHistProgram)
}
