package svc

import (
	"sort"
	"sync"

	"p2pdrm/internal/simnet"
)

// hashRing is a consistent-hash ring over farm members: every member owns
// the key-ranges preceding its virtual nodes, so adding or removing one
// member moves only ~1/n of the key space instead of reshuffling all of
// it (the Chord-style property the ROADMAP names for live resharding).
//
// The ring is deterministic: virtual-node placement hashes only the
// member address and the vnode index (FNV-1a, no randomness), so two
// rings built from the same membership sequence agree exactly — the
// Redirection Manager and every farm member can each hold a hashRing and
// route identically.
//
// Every membership change bumps the epoch. The epoch is the shard-map
// version clients carry (wire.RedirectResp.ShardEpoch): a member that
// answers wire.CodeWrongShard proves the caller's map stale, and the
// epoch in the fresh redirect reply shows the map moved on.
type hashRing struct {
	mu     sync.Mutex
	vnodes int
	points []ringPoint // sorted by hash
	member []simnet.Addr
	epoch  uint64
}

type ringPoint struct {
	hash uint64
	addr simnet.Addr
}

// defaultVNodes is the virtual-node count per member when newRing is
// given 0. 64 vnodes keep the largest/smallest ownership ratio within a
// few tens of percent for small farms without making rebuilds costly.
const defaultVNodes = 64

// newRing creates an empty ring with the given virtual nodes per member
// (0 = defaultVNodes). The empty ring is epoch 0 and owns nothing.
func newRing(vnodes int) *hashRing {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	return &hashRing{vnodes: vnodes}
}

// fnv1a hashes a string with 64-bit FNV-1a (stable across runs and
// platforms).
func fnv1a(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// vnodeHash places one virtual node from the member address and the
// vnode index, finished with splitmix64's mixer so consecutive indices
// land far apart instead of clustering (a weak mix here skews ownership
// shares badly — the distribution test pins the balance).
func vnodeHash(addr simnet.Addr, i int) uint64 {
	h := fnv1a(string(addr)) + uint64(i)*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Add inserts a member and bumps the epoch. Adding a present member is
// a no-op (the epoch does not move).
func (r *hashRing) Add(addr simnet.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.member {
		if m == addr {
			return
		}
	}
	r.member = append(r.member, addr)
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(addr, i), addr: addr})
	}
	r.sortLocked()
	r.epoch++
}

// Remove deletes a member and bumps the epoch. Removing an absent
// member is a no-op.
func (r *hashRing) Remove(addr simnet.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	found := false
	for i, m := range r.member {
		if m == addr {
			r.member = append(r.member[:i], r.member[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return
	}
	kept := r.points[:0]
	for _, p := range r.points {
		if p.addr != addr {
			kept = append(kept, p)
		}
	}
	r.points = kept
	r.epoch++
}

// sortLocked orders points by hash, breaking the (astronomically rare)
// hash ties by address so the order never depends on insertion history.
func (r *hashRing) sortLocked() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].addr < r.points[j].addr
	})
}

// Owner returns the member owning a key and the epoch the answer is
// valid under. ok is false on an empty ring.
func (r *hashRing) Owner(key string) (addr simnet.Addr, epoch uint64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	addr, ok = r.ownerLocked(key)
	return addr, r.epoch, ok
}

func (r *hashRing) ownerLocked(key string) (simnet.Addr, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := fnv1a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point owns the range past the last hash
	}
	return r.points[i].addr, true
}

// Epoch returns the shard-map version (0 for a never-changed ring).
func (r *hashRing) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Members lists the current members sorted by address.
func (r *hashRing) Members() []simnet.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]simnet.Addr(nil), r.member...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns an independent copy at the same epoch — the basis for
// computing a membership change's key movement before committing it.
func (r *hashRing) Clone() *hashRing {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &hashRing{
		vnodes: r.vnodes,
		points: append([]ringPoint(nil), r.points...),
		member: append([]simnet.Addr(nil), r.member...),
		epoch:  r.epoch,
	}
}
