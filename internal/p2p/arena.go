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
// (with a free list for reuse), and packet-dedup rings are carved from
// shared uint64 blocks. One arena serves all peers of one scheduler
// lane — peers on the same lane never run concurrently, and the arena's
// own mutex covers the cross-peer alloc/free paths, so a System (or one
// shard of a sharded run) shares a single arena across its whole overlay.
type Arena struct {
	mu     sync.Mutex
	chunks [][]child     // fixed-length table; entries filled lazily
	free   []childHandle // recycled slots
	next   int32         // first never-used handle
	live   int           // allocated and not freed; the tests' leak check

	seenSlab []uint64           // current block rings are carved from
	seenOff  int                // carve position in seenSlab
	seenFree map[int][][]uint64 // released rings, keyed by capacity
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
	return &Arena{
		chunks:   make([][]child, nChunks),
		seenFree: make(map[int][][]uint64),
	}
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

// grabSeen hands out a zero-length dedup ring with exactly `window`
// capacity, carved from a shared block. The caller appends up to window
// entries (never past capacity, so the append stays in place) and may
// return the ring with releaseSeen when the peer departs.
func (a *Arena) grabSeen(window int) []uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if rings := a.seenFree[window]; len(rings) > 0 {
		r := rings[len(rings)-1]
		a.seenFree[window] = rings[:len(rings)-1]
		return r[:0]
	}
	if a.seenOff+window > len(a.seenSlab) {
		block := 8 * window
		if block < 1<<15 {
			block = 1 << 15
		}
		a.seenSlab = make([]uint64, block)
		a.seenOff = 0
	}
	r := a.seenSlab[a.seenOff : a.seenOff : a.seenOff+window]
	a.seenOff += window
	return r
}

// releaseSeen recycles a departing peer's dedup ring.
func (a *Arena) releaseSeen(ring []uint64) {
	if cap(ring) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seenFree[cap(ring)] = append(a.seenFree[cap(ring)], ring)
}
