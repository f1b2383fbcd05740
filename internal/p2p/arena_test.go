package p2p

import (
	"testing"
	"time"

	"p2pdrm/internal/geo"
	"p2pdrm/internal/simnet"
)

func TestArenaAllocReuseAndStability(t *testing.T) {
	a := NewArena(3 * arenaChunkSize)
	if got := len(a.chunks) << arenaChunkShift; got != 3*arenaChunkSize {
		t.Fatalf("Cap() = %d, want %d", got, 3*arenaChunkSize)
	}
	// Fill past one chunk so the table grows; pointers taken early must
	// stay valid.
	h0 := a.alloc()
	a.at(h0).addr = "first"
	p0 := a.at(h0)
	handles := []childHandle{h0}
	for i := 1; i < arenaChunkSize+10; i++ {
		handles = append(handles, a.alloc())
	}
	if a.Live() != len(handles) {
		t.Fatalf("Live() = %d, want %d", a.Live(), len(handles))
	}
	if a.at(h0) != p0 || p0.addr != "first" {
		t.Fatal("chunk moved: early pointer invalidated by growth")
	}
	// Freed slots come back (and come back zeroed).
	a.release(handles[5])
	if p := a.at(handles[5]); p.addr != "" {
		t.Fatal("released slot not zeroed")
	}
	if h := a.alloc(); h != handles[5] {
		t.Fatalf("alloc after release = %d, want recycled %d", h, handles[5])
	}
	if a.Live() != len(handles) {
		t.Fatalf("Live() after recycle = %d, want %d", a.Live(), len(handles))
	}
}

func TestArenaCapacityPanics(t *testing.T) {
	a := NewArena(arenaChunkSize)
	for i := 0; i < arenaChunkSize; i++ {
		a.alloc()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("alloc past capacity did not panic")
		}
	}()
	a.alloc()
}

func TestArenaSeenRings(t *testing.T) {
	a := NewArena(0)
	r1 := a.grabSeen(64)
	if len(r1) != 0 || cap(r1) != 64 {
		t.Fatalf("grabSeen: len=%d cap=%d, want 0/64", len(r1), cap(r1))
	}
	r2 := a.grabSeen(64)
	// Distinct carves from one slab must not alias.
	r1 = append(r1[:0], make([]uint64, 64)...)
	r2 = append(r2[:0], make([]uint64, 64)...)
	r1[63] = 7
	if r2[0] == 7 || r2[63] == 7 {
		t.Fatal("seen rings alias")
	}
	// A released ring is handed out again for the same window.
	a.releaseSeen(r1)
	r3 := a.grabSeen(64)
	if &r3[:1][0] != &r1[:1][0] {
		t.Fatal("released ring was not recycled")
	}
	// A window larger than the remaining slab forces a fresh block.
	big := a.grabSeen(1 << 16)
	if cap(big) != 1<<16 {
		t.Fatalf("large grab cap = %d", cap(big))
	}
}

// TestArenaSharedAcrossPeers pins the deployment shape: two relays file
// children in one arena; one departing releases its slots for reuse
// without disturbing the other's children.
func TestArenaSharedAcrossPeers(t *testing.T) {
	f := newFixture(t)
	arena := NewArena(0)
	share := func(c *Config) { c.Arena = arena }
	rootA, _ := f.newPeer(t, "rootA", share)
	rootB, _ := f.newPeer(t, "rootB", share)
	join := func(root simnet.Addr, host int) {
		addr := geo.Addr(100, 2, host)
		cli, kp := f.newPeer(t, addr, nil)
		cli.SetTicket(f.mintTicket(kp, addr, "chA", time.Hour))
		f.sched.Go(func() {
			if err := cli.JoinParent(root, nil, 0); err != nil {
				t.Errorf("join: %v", err)
			}
		})
	}
	join("rootA", 1)
	join("rootA", 2)
	join("rootB", 3)
	f.sched.RunUntil(f.sched.Now().Add(time.Minute))
	if arena.Live() != 3 {
		t.Fatalf("arena holds %d children, want 3", arena.Live())
	}
	rootA.Leave()
	f.sched.RunUntil(f.sched.Now().Add(time.Minute))
	if arena.Live() != 1 {
		t.Fatalf("after Leave arena holds %d children, want 1", arena.Live())
	}
	if rootB.Children() != 1 {
		t.Fatal("rootB lost its child to rootA's departure")
	}
	// rootB's surviving child must still be reachable through its handle.
	rootB.mu.Lock()
	for _, h := range rootB.kidList {
		if got := arena.at(h).addr; got != geo.Addr(100, 2, 3) {
			t.Fatalf("surviving child addr = %s", got)
		}
	}
	rootB.mu.Unlock()
}

// Live reports currently allocated child slots.
func (a *Arena) Live() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.live
}
