package channelmgr

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"p2pdrm/internal/simnet"
)

// TestDirectoryMatchesReference drives the ordered-slice Directory and
// the map-backed reference through the same random operation sequences
// and requires identical samples, identical counts and — after every
// sample — an identical next draw from the seeded stream, i.e. the same
// RNG state. The clock mostly advances but sometimes steps back, so
// which expired entries a Sample dropped is observable too.
func TestDirectoryMatchesReference(t *testing.T) {
	base := time.Date(2008, 6, 23, 18, 0, 0, 0, time.UTC)
	channels := []string{"a", "b", "c"}
	for seed := int64(1); seed <= 30; seed++ {
		ops := rand.New(rand.NewSource(seed))
		addr := func() simnet.Addr { return simnet.Addr(fmt.Sprintf("10.0.%d.%d", ops.Intn(3), ops.Intn(40))) }
		d, ref := NewDirectory(seed), newRefDirectory(seed)
		now := base
		for step := 0; step < 3000; step++ {
			ch := channels[ops.Intn(len(channels))]
			switch k := ops.Intn(100); {
			case k < 40:
				a, exp := addr(), now.Add(time.Duration(ops.Intn(600)-60)*time.Second)
				if ops.Intn(50) == 0 {
					exp = time.Time{} // zero expiry registers a permanent peer
				}
				d.register(ch, a, exp)
				ref.Register(ch, a, exp)
			case k < 44:
				a := addr()
				d.RegisterPermanent(ch, a)
				ref.RegisterPermanent(ch, a)
			case k < 52:
				a := addr()
				d.remove(ch, a)
				ref.Remove(ch, a)
			case k < 60:
				if got, want := d.count(ch, now), ref.Count(ch, now); got != want {
					t.Fatalf("seed %d step %d: Count %d, reference %d", seed, step, got, want)
				}
			case k < 70:
				now = now.Add(time.Duration(ops.Intn(120)-20) * time.Second)
			default:
				n, self := ops.Intn(12), addr()
				got, want := d.sample(ch, n, self, now), ref.Sample(ch, n, self, now)
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("seed %d step %d: Sample(%q, %d, %s)\n got %v\nwant %v", seed, step, ch, n, self, got, want)
				}
				if g, w := d.rng.Int63(), ref.rng.Int63(); g != w {
					t.Fatalf("seed %d step %d: RNG state diverged after Sample", seed, step)
				}
			}
		}
	}
}

// TestDirectorySampleAllocatesOnlyTheResult: at a flash crowd's 2000
// members a Sample allocates its n-element result and nothing else (the
// shuffle runs in the directory's reused buffer).
func TestDirectorySampleAllocatesOnlyTheResult(t *testing.T) {
	now := time.Date(2008, 6, 23, 18, 0, 0, 0, time.UTC)
	d := NewDirectory(1)
	d.RegisterPermanent("ch", "root")
	for i := 0; i < 2000; i++ {
		d.register("ch", simnet.Addr(fmt.Sprintf("10.1.%d.%d", i/250, i%250)), now.Add(time.Hour))
	}
	d.sample("ch", 8, "10.1.0.0", now) // sizes the buffer
	if a := testing.AllocsPerRun(50, func() { d.sample("ch", 8, "10.1.0.0", now) }); a > 1 {
		t.Errorf("Sample allocates %v times per call at 2000 members, want ≤ 1", a)
	}
}
