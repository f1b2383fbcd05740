package p2p

import "sync"

// Child-slab geometry: handles index fixed-size chunks so a chunk, once
// published, never moves — a handle can be dereferenced without taking
// the arena lock (the handle only reaches a reader through the owning
// peer's mutex, which orders the deref after the chunk's publication).
const (
	arenaChunkShift = 8 // 256 children per chunk
	arenaChunkSize  = 1 << arenaChunkShift
	arenaChunkMask  = arenaChunkSize - 1
)

// childHandle indexes a child slot inside an Arena. Handles are dense
// small integers: the per-peer child list is a flat []childHandle
// instead of a slice of heap pointers.
type childHandle int32

// Arena backs the hot per-child state of a set of peers with flat slabs:
// child records live in fixed-size chunks addressed by integer handles
// (with a free list for reuse), and departed peers' packet-dedup tables
// wait on a free list for the next relaying peer. One arena serves all
// peers of one scheduler lane — peers on the same lane never run
// concurrently, and the arena's own mutex covers the cross-peer
// alloc/free paths, so a System (or one shard of a sharded run) shares a
// single arena across its whole overlay.
type Arena struct {
	mu     sync.Mutex
	chunks [][]child     // fixed-length table; entries filled lazily
	free   []childHandle // recycled slots
	next   int32         // first never-used handle
	live   int           // allocated and not freed; the tests' leak check

	seenFree []*seenTable // departed peers' dedup tables
}

// arenaDefaultCap is the private-arena child capacity (a standalone peer
// with no shared arena rarely exceeds its MaxChildren).
const arenaDefaultCap = 4 * arenaChunkSize

// NewArena creates an arena sized for about `capacity` children
// (rounded up to whole chunks; ≤ 0 uses a small default). The chunk
// table is fixed at creation: exceeding it panics, so size shared arenas
// for the deployment's total child-edge count.
func NewArena(capacity int) *Arena {
	if capacity <= 0 {
		capacity = arenaDefaultCap
	}
	nChunks := (capacity + arenaChunkSize - 1) >> arenaChunkShift
	return &Arena{chunks: make([][]child, nChunks)}
}

// alloc grabs a child slot, reusing freed slots before extending.
func (a *Arena) alloc() childHandle {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.live++
	if n := len(a.free); n > 0 {
		h := a.free[n-1]
		a.free = a.free[:n-1]
		return h
	}
	h := childHandle(a.next)
	ci := int(h) >> arenaChunkShift
	if ci >= len(a.chunks) {
		panic("p2p: arena child capacity exhausted")
	}
	if a.chunks[ci] == nil {
		a.chunks[ci] = make([]child, arenaChunkSize)
	}
	a.next++
	return h
}

// release returns a slot to the free list, zeroing it so the session
// AEAD and ticket references are collectable.
func (a *Arena) release(h childHandle) {
	a.mu.Lock()
	defer a.mu.Unlock()
	*a.at(h) = child{}
	a.free = append(a.free, h)
	a.live--
}

// at dereferences a handle. Lock-free: chunks never move once published
// and the handle's owner serializes access to the slot.
func (a *Arena) at(h childHandle) *child {
	return &a.chunks[int(h)>>arenaChunkShift][int(h)&arenaChunkMask]
}

// grabSeen hands out a dedup table with an empty index: a departed
// peer's, or a fresh one.
func (a *Arena) grabSeen() *seenTable {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.seenFree); n > 0 {
		t := a.seenFree[n-1]
		a.seenFree = a.seenFree[:n-1]
		return t
	}
	return new(seenTable)
}

// releaseSeen recycles a departing peer's dedup table. Emptying the
// index empties the table: ring entries are only reached through it.
func (a *Arena) releaseSeen(t *seenTable) {
	clear(t.slot[:])
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seenFree = append(a.seenFree, t)
}
