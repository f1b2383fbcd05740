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

// TestArenaSeenTables: each filter gets its own dedup table, and a
// departed peer's table goes to the next filter with its index emptied.
func TestArenaSeenTables(t *testing.T) {
	a := NewArena(0)
	var d1, d2 dedup
	d1.add(7, a)
	d2.add(7, a)
	if d1.t == d2.t {
		t.Fatal("two filters share one table")
	}
	t1 := d1.t
	d1.reset(a)
	var d3 dedup
	if !d3.add(7, a) {
		t.Fatal("a recycled table still remembers its last peer's seq")
	}
	if d3.t != t1 {
		t.Fatal("released table was not recycled")
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
