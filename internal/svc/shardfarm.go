package svc

import (
	"fmt"
	"sync"
	"time"

	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

// This file scales DeployFarm's stateless VIP pool into a sharded farm:
// members own key-ranges of a consistent-hash ring, per-account hot
// state lives manager-local on the owner, and membership can change
// mid-run with a key-range handoff instead of a redeploy.
//
// The handoff protocol (AddMember/RemoveMember):
//
//  1. Build the next ring (current ± the member) without committing it.
//  2. Transfer: every current owner exports the per-account records the
//     next ring assigns elsewhere; the new owners import them. The old
//     ring is still live, so old owners keep serving reads throughout
//     the transfer.
//  3. Commit: the ring swaps and the epoch bumps — the write fence. New
//     redirects route by the new ring; a request landing on the wrong
//     member is answered with wire.CodeWrongShard and re-resolves.
//  4. Grace: for GraceWindow after the commit, members also accept keys
//     they owned under the previous epoch, so a login already past
//     round 1 on the old owner completes there (round-2 tokens are
//     farm-sealed and verify on any member; only the ownership check
//     needs the grace).

// HandoffRecord is one account's manager-local hot state in transit
// between members. Like the rest of the in-process simulation transport
// (payloads and errors travel by reference), Data is passed by
// reference: the exporter must stop using the record once exported.
type HandoffRecord struct {
	Key  string
	Data any
}

// ShardMember is a farm member that can hand its per-key state over.
// ExportShard returns (and forgets) every record whose key satisfies
// leaving; ImportShard installs records received from other members.
type ShardMember interface {
	ExportShard(leaving func(key string) bool) []HandoffRecord
	ImportShard(recs []HandoffRecord)
}

// ShardFarmConfig parameterizes a sharded farm.
type ShardFarmConfig struct {
	// VNodes per member on the ring (0 = defaultVNodes).
	VNodes int
	// GraceWindow is how long after an epoch commit members still accept
	// keys they owned under the previous epoch. Default 30s.
	GraceWindow time.Duration
}

func (c *ShardFarmConfig) fill() {
	if c.GraceWindow <= 0 {
		c.GraceWindow = 30 * time.Second
	}
}

// ShardFarmStats snapshots the farm's resharding counters.
type ShardFarmStats struct {
	Members   int
	Epoch     uint64 // current shard-map version
	Handoffs  int64  // completed membership changes
	KeysMoved int64  // per-account records transferred across all handoffs
}

// ShardedFarm is a farm whose members own consistent-hash key-ranges.
// M is the member type (e.g. *usermgr.Manager).
type ShardedFarm[M ShardMember] struct {
	net   *simnet.Network
	sched *sim.Scheduler
	cfg   ShardFarmConfig
	ring  *hashRing

	// mu guards the membership tables. Mutation happens from scheduler
	// events (serialized); the mutex is for cross-goroutine snapshots.
	mu        sync.Mutex
	members   map[simnet.Addr]M
	nodes     map[simnet.Addr]*simnet.Node
	order     []simnet.Addr // membership in add order (deterministic)
	prev      *hashRing     // previous epoch's ring, for the grace window
	prevUntil time.Time
	handoffs  int64
	keysMoved int64
}

// newShardedFarm creates an empty sharded farm on the network.
func newShardedFarm[M ShardMember](net *simnet.Network, cfg ShardFarmConfig) *ShardedFarm[M] {
	cfg.fill()
	return &ShardedFarm[M]{
		net:     net,
		sched:   net.Scheduler(),
		cfg:     cfg,
		ring:    newRing(cfg.VNodes),
		members: make(map[simnet.Addr]M),
		nodes:   make(map[simnet.Addr]*simnet.Node),
	}
}

// DeployShardedFarm builds a farm of n members with DeployFarm's
// addr/build callback shape, extended with the member's ShardView (its
// handle for ownership checks). Members are created strictly in index
// order, like DeployFarm, so key/nonce draws inside build stay in a
// deterministic sequence.
func DeployShardedFarm[M ShardMember](net *simnet.Network, n int, cfg ShardFarmConfig,
	addr func(i int) simnet.Addr,
	build func(node *simnet.Node, view *ShardView) (M, error)) (*ShardedFarm[M], error) {

	f := newShardedFarm[M](net, cfg)
	for i := 0; i < n; i++ {
		if err := f.AddMember(addr(i), build); err != nil {
			// Mirror DeployFarm: a failed deploy deregisters the members
			// already built, leaving no half-farm on the network.
			for _, nd := range f.Nodes() {
				net.RemoveNode(nd.Addr())
			}
			return nil, err
		}
	}
	return f, nil
}

// Owner resolves a key to its owning member and the shard-map epoch the
// answer is valid under. The Redirection Manager routes through this.
func (f *ShardedFarm[M]) Owner(key string) (simnet.Addr, uint64) {
	addr, epoch, _ := f.ring.Owner(key)
	return addr, epoch
}

// Epoch returns the current shard-map version.
func (f *ShardedFarm[M]) Epoch() uint64 { return f.ring.Epoch() }

// Members returns the members in add order.
func (f *ShardedFarm[M]) Members() []M {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]M, 0, len(f.order))
	for _, a := range f.order {
		out = append(out, f.members[a])
	}
	return out
}

// Nodes returns the member nodes in add order.
func (f *ShardedFarm[M]) Nodes() []*simnet.Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*simnet.Node, 0, len(f.order))
	for _, a := range f.order {
		out = append(out, f.nodes[a])
	}
	return out
}

// Member returns the member at addr.
func (f *ShardedFarm[M]) Member(addr simnet.Addr) (M, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.members[addr]
	return m, ok
}

// Stats snapshots the resharding counters.
func (f *ShardedFarm[M]) Stats() ShardFarmStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return ShardFarmStats{
		Members:   len(f.order),
		Epoch:     f.ring.Epoch(),
		Handoffs:  f.handoffs,
		KeysMoved: f.keysMoved,
	}
}

// AddMember deploys a new member at addr mid-run and reshards: keys the
// grown ring assigns to the new member are exported from their current
// owners and imported before the epoch commits. Safe to call from a
// scheduler event while traffic is flowing.
func (f *ShardedFarm[M]) AddMember(addr simnet.Addr,
	build func(node *simnet.Node, view *ShardView) (M, error)) error {

	f.mu.Lock()
	if _, dup := f.members[addr]; dup {
		f.mu.Unlock()
		return fmt.Errorf("svc: sharded farm already has member %q", addr)
	}
	srcs := append([]simnet.Addr(nil), f.order...)
	f.mu.Unlock()

	node := f.net.NewNode(addr)
	view := &ShardView{farm: f, self: addr}
	m, err := build(node, view)
	if err != nil {
		f.net.RemoveNode(addr)
		return err
	}

	// Transfer under the still-live old ring: old owners keep serving.
	next := f.ring.Clone()
	next.Add(addr)
	moved := int64(0)
	for _, src := range srcs {
		srcM, ok := f.Member(src)
		if !ok {
			continue
		}
		recs := srcM.ExportShard(func(key string) bool {
			o, _, ok := next.Owner(key)
			return ok && o == addr
		})
		if len(recs) > 0 {
			m.ImportShard(recs)
			moved += int64(len(recs))
		}
	}

	// Commit: epoch bump is the write fence; the old map stays honored
	// for the grace window.
	f.mu.Lock()
	f.prev = f.ring.Clone()
	f.prevUntil = f.sched.Now().Add(f.cfg.GraceWindow)
	f.ring.Add(addr)
	f.members[addr] = m
	f.nodes[addr] = node
	f.order = append(f.order, addr)
	f.handoffs++
	f.keysMoved += moved
	f.mu.Unlock()
	return nil
}

// RemoveMember drains a member out of the ring mid-run: its entire
// key-space is exported and imported by the members the shrunk ring
// assigns it to, then the epoch commits. The departed node stays
// registered (and its ShardView keeps honoring the grace window) so
// in-flight logins against it complete; it simply receives no new
// redirects.
func (f *ShardedFarm[M]) RemoveMember(addr simnet.Addr) error {
	f.mu.Lock()
	dep, ok := f.members[addr]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("svc: sharded farm has no member %q", addr)
	}
	if len(f.order) == 1 {
		f.mu.Unlock()
		return fmt.Errorf("svc: cannot remove the last member %q", addr)
	}
	f.mu.Unlock()

	next := f.ring.Clone()
	next.Remove(addr)
	recs := dep.ExportShard(func(string) bool { return true })
	moved := int64(len(recs))
	// Group the departing state by its new owner and import.
	byOwner := make(map[simnet.Addr][]HandoffRecord)
	for _, rec := range recs {
		o, _, ok := next.Owner(rec.Key)
		if !ok {
			continue
		}
		byOwner[o] = append(byOwner[o], rec)
	}
	for owner, batch := range byOwner {
		if tgt, ok := f.Member(owner); ok {
			tgt.ImportShard(batch)
		}
	}

	f.mu.Lock()
	f.prev = f.ring.Clone()
	f.prevUntil = f.sched.Now().Add(f.cfg.GraceWindow)
	f.ring.Remove(addr)
	delete(f.members, addr)
	delete(f.nodes, addr)
	for i, a := range f.order {
		if a == addr {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	f.handoffs++
	f.keysMoved += moved
	f.mu.Unlock()
	return nil
}

// allows reports whether the member at self may serve key right now:
// it is the current owner, or was the owner under the previous epoch
// and the grace window is still open.
func (f *ShardedFarm[M]) allows(self simnet.Addr, key string) bool {
	if o, _, ok := f.ring.Owner(key); ok && o == self {
		return true
	}
	f.mu.Lock()
	prev, until := f.prev, f.prevUntil
	f.mu.Unlock()
	if prev == nil || !f.sched.Now().Before(until) {
		return false
	}
	o, _, ok := prev.Owner(key)
	return ok && o == self
}

// shardChecker is the non-generic surface a ShardView needs from its
// farm (so usermgr.Config can hold a *ShardView without knowing M).
type shardChecker interface {
	allows(self simnet.Addr, key string) bool
	Owner(key string) (simnet.Addr, uint64)
	Epoch() uint64
}

// ShardView is one member's handle on the farm's shard map: the check a
// handler runs before touching per-account state. Handlers must call
// Check before taking their own locks — it takes the farm's.
type ShardView struct {
	farm shardChecker
	self simnet.Addr
}

// Epoch returns the farm's current shard-map version.
func (v *ShardView) Epoch() uint64 { return v.farm.Epoch() }

// Check returns nil when this member may serve the key, and a
// wire.CodeWrongShard ServiceError naming the real owner and the
// current epoch otherwise — the frame the client's retry path keys on.
func (v *ShardView) Check(key string) error {
	if v.farm.allows(v.self, key) {
		return nil
	}
	owner, epoch := v.farm.Owner(key)
	return wire.Errf(wire.CodeWrongShard,
		"key owned by %s at epoch %d (stale shard map)", owner, epoch)
}
