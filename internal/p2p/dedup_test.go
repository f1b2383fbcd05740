package p2p

import (
	"math/rand"
	"testing"
)

// mapDedup is the filter dedup replaced, kept as its reference: a map of
// accepted seqs behind a fixed eviction ring of the last seenWindow.
type mapDedup struct {
	seen map[uint64]bool
	ring []uint64
	pos  int
}

func (m *mapDedup) add(seq uint64) bool {
	if m.seen == nil {
		m.seen = make(map[uint64]bool)
	}
	if m.seen[seq] {
		return false
	}
	m.seen[seq] = true
	if len(m.ring) < seenWindow {
		m.ring = append(m.ring, seq)
		return true
	}
	delete(m.seen, m.ring[m.pos])
	m.ring[m.pos] = seq
	m.pos = (m.pos + 1) % seenWindow
	return true
}

// checkDedup verifies the index against the reference: exactly one
// occupied slot per remembered seq, each reachable from its home
// without crossing an empty slot.
func checkDedup(t *testing.T, d *dedup, ref *mapDedup) {
	t.Helper()
	occupied := 0
	for _, s := range d.t.slot {
		if s != 0 {
			occupied++
		}
	}
	if occupied != len(ref.seen) {
		t.Fatalf("%d occupied slots, reference remembers %d seqs", occupied, len(ref.seen))
	}
	for seq := range ref.seen {
		i := seenHome(seq)
		for d.t.slot[i] != 0 && d.t.seqs[d.t.slot[i]-1] != seq {
			i = (i + 1) & seenSlotMask
		}
		if d.t.slot[i] == 0 {
			t.Fatalf("seq %d is remembered but not reachable from its home slot", seq)
		}
	}
}

// clusteredSeqs returns n distinct seqs whose home slots all fall in
// the last few slots of the index, so their probe runs collide and wrap
// around to slot 0.
func clusteredSeqs(n int) []uint64 {
	var out []uint64
	for seq := uint64(0); len(out) < n; seq++ {
		if seenHome(seq) >= seenSlots-16 {
			out = append(out, seq)
		}
	}
	return out
}

// TestDedupMatchesMapReference drives dedup and the map it replaced with
// the same random seq streams, step for step: every add must agree, and
// the index must stay exact after evictions shift probe runs. The
// streams cover a live channel (interleaved sub-streams, second-parent
// duplicates, a late packet from beyond the window), a narrow range
// that is evicted and re-accepted over and over, a quarter of seqs with
// clustered homes that wrap the index's end, and uniform 64-bit seqs;
// filters are reset mid-stream as a departing peer's are.
func TestDedupMatchesMapReference(t *testing.T) {
	cluster := clusteredSeqs(seenWindow / 2)
	streams := map[string]func(r *rand.Rand, step int) uint64{
		"live": func(r *rand.Rand, step int) uint64 {
			seq := uint64(step)
			switch r.Intn(8) {
			case 0: // the same packet via a second parent
				seq -= uint64(r.Intn(64))
			case 1: // a straggler, sometimes older than the window
				seq -= uint64(r.Intn(2 * seenWindow))
			}
			if seq > uint64(step) {
				seq = 0
			}
			return seq
		},
		"narrow": func(r *rand.Rand, _ int) uint64 { return uint64(r.Intn(seenWindow + seenWindow/2)) },
		"clustered": func(r *rand.Rand, _ int) uint64 {
			if r.Intn(4) == 0 {
				return cluster[r.Intn(len(cluster))]
			}
			return r.Uint64()
		},
		"uniform": func(r *rand.Rand, _ int) uint64 { return r.Uint64() },
	}
	for name, next := range streams {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			a := NewArena(0)
			var d dedup
			var ref mapDedup
			const steps = 5 * seenWindow
			for step := 0; step < steps; step++ {
				if step == steps/2 {
					d.reset(a)
					ref = mapDedup{}
				}
				seq := next(r, step)
				if got, want := d.add(seq, a), ref.add(seq); got != want {
					t.Fatalf("step %d: add(%d) = %v, reference %v", step, seq, got, want)
				}
				if step%997 == 0 || step == steps-1 {
					checkDedup(t, &d, &ref)
				}
			}
		})
	}
}
