package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// shardEntity is a lane-pinned actor for the invariance tests, built on
// the discipline internal/exp's virtual populations follow: a private
// RNG stream seeded from the entity's global index, lane-local AfterArg
// timers, a sentinel every tick cancels and re-arms, and a per-lane
// counter control reads.
type shardEntity struct {
	id       int
	lane     *Shard
	fired    *int64 // the lane's commutative counter
	rng      uint64
	fires    int
	log      []int64 // own fire keys
	sentinel ShardTimer
	lapsed   int // sentinels that fired: ticks that drew a long gap
}

func (e *shardEntity) next() uint64 {
	e.rng = e.rng*6364136223846793005 + 1442695040888963407
	return e.rng >> 33
}

const fixtureLookahead = 10 * time.Millisecond

// shardFixture builds K entities striped over n lanes and runs the
// scenario to end, sampling the summed lane counters from the control
// phase once per epoch. Entity behavior depends only on the entity's own
// identity, so every per-entity observation — and every control sample —
// must be independent of n.
func shardFixture(n, entities int, end time.Time) ([]*shardEntity, []int64) {
	eng := NewSharded(t0, 7, n, fixtureLookahead)
	counters := make([]int64, n)
	ents := make([]*shardEntity, entities)
	for i := range ents {
		ents[i] = &shardEntity{
			id:    i,
			lane:  eng.Shard(i % n),
			fired: &counters[i%n],
			rng:   uint64(i)*0x9E3779B97F4A7C15 + 1,
		}
	}
	lapse := func(v any) { v.(*shardEntity).lapsed++ }
	var tick func(v any)
	tick = func(v any) {
		e := v.(*shardEntity)
		e.fires++
		*e.fired++
		e.log = append(e.log, e.lane.nowKey)
		e.sentinel.Stop()
		e.sentinel = e.lane.AfterArg(5*time.Millisecond, lapse, e)
		if e.fires < 100 {
			e.lane.AfterArg(time.Duration(1+e.next()%7000)*time.Microsecond, tick, e)
		}
	}
	for _, e := range ents {
		e.lane.AfterArg(time.Duration(1+e.next()%7000)*time.Microsecond, tick, e)
	}
	var samples []int64
	var sample func()
	sample = func() {
		total := int64(0)
		for _, c := range counters {
			total += c
		}
		samples = append(samples, total)
		eng.Ctrl().After(fixtureLookahead, sample)
	}
	eng.Ctrl().After(fixtureLookahead, sample)
	eng.Run(end)
	return ents, samples
}

func (e *shardEntity) fingerprint() string {
	sum := int64(0)
	for _, k := range e.log {
		sum += k
	}
	return fmt.Sprintf("%d:%d:%d:%d;", e.id, e.fires, e.lapsed, sum)
}

// TestShardedShardCountInvariance pins the engine's core promise: a
// lane-local workload produces identical per-entity observations and
// identical control-phase samples for 1, 2, and 8 lanes.
func TestShardedShardCountInvariance(t *testing.T) {
	end := t0.Add(2 * time.Second)
	base, baseSamples := shardFixture(1, 24, end)
	for _, e := range base {
		if e.fires != 100 || e.lapsed == 0 {
			t.Fatalf("entity %d: %d fires, %d lapsed sentinels; the fixture must exercise both timers", e.id, e.fires, e.lapsed)
		}
	}
	for _, n := range []int{2, 8} {
		got, samples := shardFixture(n, 24, end)
		for i, e := range got {
			ref := base[i]
			if !reflect.DeepEqual(e.log, ref.log) {
				t.Fatalf("shards=%d entity %d fire log diverged from shards=1", n, i)
			}
			if e.lapsed != ref.lapsed {
				t.Fatalf("shards=%d entity %d lapsed=%d, shards=1 lapsed=%d", n, i, e.lapsed, ref.lapsed)
			}
		}
		if !reflect.DeepEqual(samples, baseSamples) {
			t.Fatalf("shards=%d control samples diverged from shards=1:\n%v\nvs\n%v", n, samples, baseSamples)
		}
	}
}

// TestShardedRunDeterminism pins run-to-run reproducibility at a fixed
// shard count: goroutine interleaving during the worker phase must not
// leak into lane state or into what control reads. Fails under -race on
// any unsynchronized cross-lane access as well.
func TestShardedRunDeterminism(t *testing.T) {
	end := t0.Add(2 * time.Second)
	fingerprint := func() string {
		ents, samples := shardFixture(8, 32, end)
		s := fmt.Sprint(samples)
		for _, e := range ents {
			s += e.fingerprint()
		}
		return s
	}
	a, b := fingerprint(), fingerprint()
	if a != b {
		t.Fatalf("same-config sharded runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestShardedControlPhaseFirst pins the epoch semantics that make
// sampling shard-invariant: a control-phase reader observes lane state
// as of the epoch start, for every shard count.
func TestShardedControlPhaseFirst(t *testing.T) {
	const lookahead = 10 * time.Millisecond
	sample := func(n int) []int64 {
		eng := NewSharded(t0, 1, n, lookahead)
		counters := make([]int64, n)
		var tick func(v any)
		tick = func(v any) {
			i := v.(int)
			counters[i]++
			if counters[i] < 1000 {
				eng.Shard(i).AfterArg(time.Millisecond, tick, v)
			}
		}
		for i := 0; i < n; i++ {
			eng.Shard(i).AfterArg(time.Millisecond, tick, i)
		}
		var samples []int64
		var obsTick func()
		next := t0
		obsTick = func() {
			total := int64(0)
			for i := range counters {
				total += counters[i]
			}
			samples = append(samples, total)
			next = next.Add(lookahead)
			if len(samples) < 20 {
				eng.Ctrl().At(next, obsTick)
			}
		}
		next = next.Add(lookahead)
		eng.Ctrl().At(next, obsTick)
		eng.Run(t0.Add(time.Second))
		return samples
	}
	base := sample(1)
	if base[0] != 0 {
		t.Fatalf("first control-phase sample = %d; want 0 (control runs before workers in the epoch)", base[0])
	}
	for _, n := range []int{2, 4} {
		if got := sample(n); !reflect.DeepEqual(got, mulSamples(base, int64(n))) {
			t.Fatalf("shards=%d samples %v; want %v scaled from shards=1 %v", n, got, mulSamples(base, int64(n)), base)
		}
	}
}

func mulSamples(s []int64, k int64) []int64 {
	out := make([]int64, len(s))
	for i, v := range s {
		out[i] = v * k
	}
	return out
}

// TestShardedLaneFreeEquivalence pins the fast path: a Sharded engine
// whose lanes stay empty must behave exactly like the serial Scheduler,
// including goroutines, sleeps, and inclusive deadlines.
func TestShardedLaneFreeEquivalence(t *testing.T) {
	run := func(s *Scheduler, runner func(until time.Time)) []int64 {
		var log []int64
		s.Go(func() {
			for i := 0; i < 50; i++ {
				s.Sleep(time.Duration(1+i%9) * time.Millisecond)
				log = append(log, s.Now().UnixNano())
			}
		})
		s.At(t0.Add(123*time.Millisecond), func() { log = append(log, -s.Now().UnixNano()) })
		runner(t0.Add(200 * time.Millisecond))
		return log
	}
	serial := New(t0, 3)
	want := run(serial, serial.RunUntil)
	eng := NewSharded(t0, 3, 4, 10*time.Millisecond)
	got := run(eng.Ctrl(), eng.Run)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lane-free sharded run diverged from serial:\n%v\nvs\n%v", got, want)
	}
}

// TestShardedTimerStop covers ShardTimer cancellation including
// wheel-resident lane timers, and the contract panics: mid-run, only a
// lane's own callbacks may schedule into it or stop its timers.
func TestShardedTimerStop(t *testing.T) {
	nop := func(any) {}
	eng := NewSharded(t0, 5, 2, 5*time.Millisecond)
	fired := 0
	eng.Shard(0).AfterArg(20*time.Millisecond, func(any) { fired++ }, nil)
	var cancelled []ShardTimer
	for i := 0; i < 1000; i++ {
		cancelled = append(cancelled, eng.Shard(0).AfterArg(time.Minute+time.Duration(i)*time.Millisecond, func(any) {
			t.Error("stopped lane timer fired")
		}, nil))
	}
	for _, tm := range cancelled {
		if !tm.Stop() {
			t.Fatal("Stop() = false for pending lane timer")
		}
		if tm.Stop() {
			t.Fatal("second Stop() = true")
		}
	}
	if got := eng.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after mass cancel; want 1", got)
	}
	eng.Run(t0.Add(time.Hour))
	if fired != 1 {
		t.Fatalf("live lane timer fired %d times; want 1", fired)
	}

	// foreign runs body from a lane-0 callback in an epoch where lane 1
	// has nothing pending (so no lane-1 worker is running beside it) and
	// reports whether the run panicked.
	foreign := func(body func(lane1 *Shard, theirs ShardTimer)) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		eng := NewSharded(t0, 5, 2, 5*time.Millisecond)
		theirs := eng.Shard(1).AfterArg(time.Millisecond, nop, nil)
		eng.Shard(0).AfterArg(20*time.Millisecond, func(any) { body(eng.Shard(1), theirs) }, nil)
		eng.Run(t0.Add(time.Second))
		return false
	}
	if !foreign(func(lane1 *Shard, _ ShardTimer) { lane1.AfterArg(time.Millisecond, nop, nil) }) {
		t.Error("scheduling into a foreign lane mid-run did not panic")
	}
	if !foreign(func(_ *Shard, theirs ShardTimer) { theirs.Stop() }) {
		t.Error("stopping a foreign lane's timer mid-run did not panic")
	}
}

// TestShardedStress is the -race workhorse: many lanes, dense timers,
// cancellations, per-lane counters summed by a control-phase reader.
func TestShardedStress(t *testing.T) {
	const lanes = 8
	eng := NewSharded(t0, 1234, lanes, 2*time.Millisecond)
	type actor struct {
		lane  *Shard
		steps *int64 // the lane's commutative counter
		n     int
		state uint64
		guard ShardTimer
	}
	counters := make([]int64, lanes)
	actors := make([]*actor, 64)
	for i := range actors {
		actors[i] = &actor{lane: eng.Shard(i % lanes), steps: &counters[i%lanes], state: uint64(i)}
	}
	nop := func(any) {}
	var step func(v any)
	step = func(v any) {
		a := v.(*actor)
		a.n++
		*a.steps++
		a.state = a.state*6364136223846793005 + 1442695040888963407
		if a.state%5 == 0 {
			a.guard.Stop()
			a.guard = a.lane.AfterArg(time.Duration(1+a.state%100)*time.Millisecond, nop, nil)
		}
		if a.n < 500 {
			a.lane.AfterArg(time.Duration(100+a.state%900)*time.Microsecond, step, a)
		}
	}
	for _, a := range actors {
		a.lane.AfterArg(time.Duration(1+a.state%50)*time.Microsecond, step, a)
	}
	var last int64
	var read func()
	read = func() {
		total := int64(0)
		for _, c := range counters {
			total += c
		}
		if total < last {
			t.Errorf("control read %d steps after reading %d", total, last)
		}
		last = total
		if eng.Pending() > 0 {
			eng.Ctrl().After(2*time.Millisecond, read)
		}
	}
	eng.Ctrl().After(2*time.Millisecond, read)
	eng.Run(t0.Add(10 * time.Second))
	for i, a := range actors {
		if a.n != 500 {
			t.Fatalf("actor %d ran %d of 500 steps", i, a.n)
		}
	}
	if want := int64(500 * len(actors)); last != want {
		t.Fatalf("control's last read saw %d steps; want %d", last, want)
	}
}
