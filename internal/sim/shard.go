package sim

import (
	"fmt"
	"sync"
	"time"
)

// Sharded is a conservative parallel discrete-event engine: a control
// Scheduler (the full cooperative-goroutine simulator) plus N worker
// shard lanes, each owning its own event queue (heap + timer wheel).
// Lanes hold only plain callback events — the high-volume, entity-local
// timer populations (virtual-viewer renewals, evictions, churn) — while
// everything that blocks on virtual time or talks RPC stays on the
// control scheduler.
//
// # Epochs and lookahead
//
// Time advances in lock-step epochs of length L, the engine's
// lookahead. Lanes never interact with each other, so L is not a
// causality bound; it is the cadence at which control gets to observe
// lane state. Each epoch [T, T+L) runs two phases:
//
//  1. Control phase: the control scheduler executes its events in
//     [T, T+L). Control code deterministically observes every lane's
//     state exactly as of T — no lane event in [T, T+L) has run yet.
//  2. Worker phase: all lanes execute their events in [T, T+L)
//     concurrently, one goroutine per non-idle lane.
//
// Nothing crosses between lanes, so within a lane the event order is
// (key, seq) whatever GOMAXPROCS or the OS scheduler does. Phase
// boundaries depend only on L and the event population — not on the
// shard count — so a simulation whose per-entity behavior is
// independent of lane placement (entity-local RNG streams, commutative
// counters) produces byte-identical results for any number of shards.
// internal/exp's sharded scenarios are built on that discipline and pin
// it with golden fingerprints.
//
// # Contract
//
// Lane events must touch only state owned by their lane, plus
// commutative counters that control reads at phase boundaries; there is
// no cross-lane messaging. Scheduling into a lane (and stopping a lane
// timer) from outside is allowed only before Run starts (setup); during
// a run new lane events may originate only from that lane's own
// callbacks. Timer wheels make lane scheduling and cancellation O(1), so
// million-timer lanes cost what the serial engine pays, minus the
// shared-heap contention.
type Sharded struct {
	ctrl      *Scheduler
	shards    []*Shard
	lookahead int64 // epoch length L in ns
	running   bool
}

// NewSharded creates an engine with n worker lanes. The lookahead is
// the epoch length: it must be positive when n > 0. It sets how stale a
// control-phase read of lane counters may be; any cadence is safe.
func NewSharded(start time.Time, seed int64, n int, lookahead time.Duration) *Sharded {
	if n < 0 {
		panic("sim: negative shard count")
	}
	if n > 0 && lookahead <= 0 {
		panic("sim: sharded engine needs a positive lookahead")
	}
	e := &Sharded{
		ctrl:      New(start, seed),
		lookahead: int64(lookahead),
	}
	e.shards = make([]*Shard, n)
	startKey := start.UnixNano()
	for i := range e.shards {
		sh := &Shard{eng: e, id: i, nowKey: startKey}
		sh.q.init(startKey)
		e.shards[i] = sh
	}
	return e
}

// Ctrl returns the control scheduler. Protocol nodes, simnet, samplers,
// and anything using goroutines/Waiters lives here.
func (e *Sharded) Ctrl() *Scheduler { return e.ctrl }

// NumShards reports the number of worker lanes.
func (e *Sharded) NumShards() int { return len(e.shards) }

// Shard returns lane i.
func (e *Sharded) Shard(i int) *Shard { return e.shards[i] }

// Pending totals live events across the control scheduler and every
// lane. It must only be called from the control phase or outside Run
// (lane queues are unsynchronized while the worker phase runs).
func (e *Sharded) Pending() int {
	total := e.ctrl.pending()
	for _, sh := range e.shards {
		total += sh.q.pending()
	}
	return total
}

// Run executes the epoch loop until no work remains at or before the
// deadline. Like Scheduler.RunUntil it is inclusive of the deadline and
// leaves clocks at the last fired event. Epochs fast-forward over idle
// stretches, and when every lane is drained the control scheduler runs
// the remainder in a single span, so a lane-free Sharded run costs the
// same as the serial engine.
func (e *Sharded) Run(until time.Time) {
	endKey := until.UnixNano()
	e.running = true
	defer func() { e.running = false }()
	for {
		bound, ok := e.earliestWork()
		if !ok || bound > endKey {
			break
		}
		next := bound + e.lookahead
		if e.lanesIdle() {
			// No lane events exist and none can appear (lane events only
			// originate from lanes): the epoch constraint is vacuous.
			next = endKey + 1
		} else if next <= bound || next > endKey+1 {
			next = endKey + 1
		}
		e.ctrl.RunUntil(time.Unix(0, next-1).UTC())
		e.runLanes(next - 1)
	}
}

// earliestWork lower-bounds the key of the next live event anywhere.
// A cancelled wheel timer leaves its slot at once, so it never bounds
// an epoch; a lane whose heap holds only tombstones is skipped — it has
// nothing to execute, and counting them would stall the epoch cursor on
// keys no run phase will ever consume. Epoch boundaries thus follow
// live events only.
func (e *Sharded) earliestWork() (int64, bool) {
	bound, ok := e.ctrl.earliestKey()
	if !ok {
		bound = noLimit
	}
	for _, sh := range e.shards {
		if sh.q.pending() == 0 {
			continue
		}
		if b := sh.q.earliestBound(); b < bound {
			bound = b
		}
	}
	return bound, bound != noLimit
}

func (e *Sharded) lanesIdle() bool {
	for _, sh := range e.shards {
		if sh.q.pending() > 0 {
			return false
		}
	}
	return true
}

// runLanes executes the worker phase: every lane with work runs its
// events with key <= limit on its own goroutine. A panic in a lane
// callback is re-raised on the engine goroutine once every lane is done.
func (e *Sharded) runLanes(limit int64) {
	if len(e.shards) == 1 {
		e.shards[0].runThrough(limit)
		return
	}
	var (
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	for _, sh := range e.shards {
		if sh.q.pending() == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicV == nil {
						panicV = r
					}
					panicMu.Unlock()
				}
			}()
			sh.runThrough(limit)
		}(sh)
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
}

// Shard is one worker lane: an event queue advanced in epochs by the
// engine. All methods are unsynchronized — see the Sharded contract for
// who may call what when.
type Shard struct {
	eng       *Sharded
	id        int
	nowKey    int64
	q         equeue
	executing bool
}

// checkOwner panics when a lane's queue is touched mid-run by anything
// but the lane's own callbacks: the queue is unsynchronized.
func (sh *Shard) checkOwner() {
	if sh.eng.running && !sh.executing {
		panic(fmt.Sprintf("sim: touching shard %d's timers from outside its worker phase", sh.id))
	}
}

// AfterArg schedules fn(arg) to run d after the lane clock (the due time
// of the event being executed, or the last one executed) — closure-free,
// for per-entity timer populations.
func (sh *Shard) AfterArg(d time.Duration, fn func(any), arg any) ShardTimer {
	sh.checkOwner()
	if d < 0 {
		d = 0
	}
	ev := sh.q.schedule(sh.nowKey + int64(d))
	ev.fnA = fn
	ev.arg = arg
	return ShardTimer{sh: sh, ev: ev, gen: ev.gen()}
}

// runThrough executes lane events with key <= limit in (key, seq) order.
func (sh *Shard) runThrough(limit int64) {
	sh.executing = true
	for {
		ev := sh.q.popThrough(limit)
		if ev == nil {
			break
		}
		sh.nowKey = ev.key
		fn, arg := ev.fnA, ev.arg
		sh.q.release(ev)
		fn(arg)
	}
	sh.executing = false
}

// ShardTimer cancels a pending lane event. Stop must be called under
// the same conditions as scheduling into the lane, and panics likewise
// when it is not.
type ShardTimer struct {
	sh  *Shard
	ev  *event
	gen uint64
}

// Stop cancels the timer, reporting whether it was still pending.
func (t ShardTimer) Stop() bool {
	if t.sh == nil || t.ev == nil {
		return false
	}
	t.sh.checkOwner()
	if !t.ev.live(t.gen) {
		return false
	}
	t.sh.q.kill(t.ev)
	return true
}
