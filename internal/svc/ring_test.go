package svc

import (
	"fmt"
	"testing"

	"p2pdrm/internal/simnet"
)

func TestRingOwnerDeterministicAcrossBuildOrder(t *testing.T) {
	a := newRing(0)
	b := newRing(0)
	for _, m := range []simnet.Addr{"um1", "um2", "um3"} {
		a.Add(m)
	}
	for _, m := range []simnet.Addr{"um3", "um1", "um2"} {
		b.Add(m)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("v%05d@e", i)
		ao, _, aok := a.Owner(key)
		bo, _, bok := b.Owner(key)
		if !aok || !bok || ao != bo {
			t.Fatalf("key %q: order-dependent ownership %v/%v", key, ao, bo)
		}
	}
}

func TestRingEpochBumpsOnlyOnChange(t *testing.T) {
	r := newRing(8)
	if r.Epoch() != 0 {
		t.Fatalf("fresh ring epoch = %d", r.Epoch())
	}
	r.Add("um1")
	r.Add("um2")
	if r.Epoch() != 2 {
		t.Fatalf("epoch after two adds = %d", r.Epoch())
	}
	r.Add("um1") // present: no-op
	if r.Epoch() != 2 {
		t.Fatalf("duplicate add moved the epoch to %d", r.Epoch())
	}
	r.Remove("um9") // absent: no-op
	if r.Epoch() != 2 {
		t.Fatalf("absent remove moved the epoch to %d", r.Epoch())
	}
	r.Remove("um2")
	if r.Epoch() != 3 {
		t.Fatalf("epoch after remove = %d", r.Epoch())
	}
	if got := r.Members(); len(got) != 1 || got[0] != "um1" {
		t.Fatalf("members = %v", got)
	}
}

func TestRingEmptyOwnsNothing(t *testing.T) {
	r := newRing(0)
	if _, _, ok := r.Owner("k"); ok {
		t.Fatal("empty ring claimed an owner")
	}
	r.Add("um1")
	r.Remove("um1")
	if _, _, ok := r.Owner("k"); ok {
		t.Fatal("emptied ring claimed an owner")
	}
}

// TestRingAddMovesOnlyNewMembersShare pins the consistent-hashing
// property the handoff relies on: growing the farm reassigns only keys
// the new member takes over — nothing shuffles between the old members.
func TestRingAddMovesOnlyNewMembersShare(t *testing.T) {
	r := newRing(0)
	r.Add("um1")
	r.Add("um2")
	r.Add("um3")
	const n = 2000
	before := make(map[string]simnet.Addr, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("v%05d@e", i)
		o, _, _ := r.Owner(key)
		before[key] = o
	}
	r.Add("um4")
	moved := 0
	for key, was := range before {
		now, _, _ := r.Owner(key)
		if now == was {
			continue
		}
		if now != "um4" {
			t.Fatalf("key %q moved %v → %v, not to the new member", key, was, now)
		}
		moved++
	}
	// The new member should own roughly 1/4 of the space; allow wide
	// slack (vnode placement is hash-lumpy) but reject a reshuffle.
	if moved == 0 || moved > n/2 {
		t.Fatalf("add moved %d/%d keys", moved, n)
	}
}

func TestRingDistributionRoughlyBalanced(t *testing.T) {
	r := newRing(0)
	members := []simnet.Addr{"um1", "um2", "um3", "um4"}
	for _, m := range members {
		r.Add(m)
	}
	counts := make(map[simnet.Addr]int)
	const n = 4000
	for i := 0; i < n; i++ {
		o, _, _ := r.Owner(fmt.Sprintf("v%05d@e", i))
		counts[o]++
	}
	for _, m := range members {
		share := float64(counts[m]) / n
		if share < 0.10 || share > 0.45 {
			t.Fatalf("member %v owns %.0f%% of keys: %v", m, share*100, counts)
		}
	}
}

func TestRingCloneIndependent(t *testing.T) {
	r := newRing(0)
	r.Add("um1")
	c := r.Clone()
	if c.Epoch() != r.Epoch() {
		t.Fatalf("clone epoch %d != %d", c.Epoch(), r.Epoch())
	}
	c.Add("um2")
	if r.Epoch() == c.Epoch() {
		t.Fatal("mutating the clone moved the original's epoch")
	}
	if o, _, _ := r.Owner("some-key"); o != "um1" {
		t.Fatalf("original ring re-routed after clone mutation: %v", o)
	}
}
