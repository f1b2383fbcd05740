package exp

import (
	"time"

	"p2pdrm/internal/sim"
)

// splitmix64 advances one viewer's private RNG state and returns the
// next 64-bit output (Steele, Lea & Flood's SplitMix64). Each virtual
// viewer owns one state word seeded from the run seed and its GLOBAL
// viewer index, so the stream a viewer consumes is the same no matter
// which lane it lands on — the property that makes sharded fingerprints
// independent of the shard count.
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// sm64Float maps the next output to [0, 1) with 53 bits of precision.
func sm64Float(s *uint64) float64 {
	return float64(splitmix64(s)>>11) / (1 << 53)
}

// sm64Seed derives a viewer's initial state from the run seed and its
// global index (never zero-collapsing: the constant offsets decorrelate
// adjacent viewers even for seed 0).
func sm64Seed(seed int64, global int) uint64 {
	return uint64(seed)*0x9E3779B97F4A7C15 ^ (uint64(global)+1)*0xBF58476D1CE4E5B9
}

// shardPop is one lane's slice of the virtual viewer population: each
// viewer holds one pending license-renewal timer and one pending
// eviction sentinel, and draws from its own RNG stream. Viewers are
// striped over lanes by global index; all state here is lane-owned,
// counters are read by control-phase samplers (commutative sums at epoch
// boundaries). Each viewer is one 32-byte record — its RNG state and its
// pending eviction sentinel — and a timer's argument is a pointer to it,
// which an interface holds without boxing: arming a timer allocates
// nothing and a renewal touches one record.
type shardPop struct {
	lane       *sim.Shard
	renewEvery time.Duration
	evictAfter time.Duration

	renewals  int64
	churned   int64
	evictions int64

	viewers []popViewer

	// renew and evicted bound once: writing p.renew at a call site
	// allocates a fresh method value per timer.
	renewFn, evictedFn func(any)
}

// popViewer is one virtual viewer's state.
type popViewer struct {
	rng   uint64         // SplitMix64 state
	evict sim.ShardTimer // pending eviction sentinel
}

// popChurnFrac is the per-renewal probability that a viewer departs
// silently; its sentinel then fires and a replacement joins with a fresh
// phase.
const popChurnFrac = 0.02

// newShardPops stripes n viewers over the engine's lanes (viewer v on
// lane v mod shards) and schedules every viewer's first renewal at a
// uniform phase drawn from its own stream. The silent-viewer eviction
// deadline every renewal re-arms is 2.5 × renewEvery; re-arming cancels
// the previous sentinel — the dominant Timer.Stop workload at scale.
func newShardPops(eng *sim.Sharded, n int, seed int64, renewEvery time.Duration) []*shardPop {
	shards := eng.NumShards()
	pops := make([]*shardPop, shards)
	for s := range pops {
		size := n / shards
		if s < n%shards {
			size++
		}
		p := &shardPop{
			lane:       eng.Shard(s),
			renewEvery: renewEvery,
			evictAfter: 2*renewEvery + renewEvery/2,
			viewers:    make([]popViewer, size),
		}
		p.renewFn, p.evictedFn = p.renew, p.evicted
		for i := range p.viewers {
			p.viewers[i].rng = sm64Seed(seed, s+i*shards)
		}
		pops[s] = p
	}
	for _, p := range pops {
		for i := range p.viewers {
			v := &p.viewers[i]
			phase := time.Duration(sm64Float(&v.rng) * float64(p.renewEvery))
			p.lane.AfterArg(phase, p.renewFn, v)
		}
	}
	return pops
}

// renew is one viewer's license renewal: cancel the previous eviction
// sentinel, maybe churn, re-arm both timers.
func (p *shardPop) renew(arg any) {
	v := arg.(*popViewer)
	v.evict.Stop()
	if sm64Float(&v.rng) < popChurnFrac {
		// Silent departure: no renewal is scheduled, so the sentinel
		// fires at the deadline and admits a replacement.
		p.churned++
		v.evict = p.lane.AfterArg(p.evictAfter, p.evictedFn, v)
		return
	}
	p.renewals++
	v.evict = p.lane.AfterArg(p.evictAfter, p.evictedFn, v)
	p.lane.AfterArg(p.renewEvery, p.renewFn, v)
}

// evicted fires only for churned viewers (renewals always cancel it
// first); the slot's replacement joins with a fresh phase.
func (p *shardPop) evicted(arg any) {
	v := arg.(*popViewer)
	p.evictions++
	phase := time.Duration(sm64Float(&v.rng) * float64(p.renewEvery))
	p.lane.AfterArg(phase, p.renewFn, v)
}

// popTotals sums the commutative counters across lanes (control-phase
// reads observe every lane as of the epoch start).
func popTotals(pops []*shardPop) (renewals, churned, evictions int64) {
	for _, p := range pops {
		renewals += p.renewals
		churned += p.churned
		evictions += p.evictions
	}
	return
}
