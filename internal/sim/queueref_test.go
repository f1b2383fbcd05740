package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refQueue is the differential reference for one event queue: every
// pending event in a slice kept sorted by (key, schedule order), the
// clock at the last fired event, and the engine's clamping of past keys.
// It shares no code with equeue: no heap, no wheel, no recycling, no
// generations.
type refQueue struct {
	now int64
	evs []refEvent
}

type refEvent struct {
	key int64
	id  int
}

func (r *refQueue) at(key int64, id int) {
	key = max(key, r.now)
	// A newcomer goes after every event due at or before its key: it is
	// the latest scheduled.
	i := sort.Search(len(r.evs), func(i int) bool { return r.evs[i].key > key })
	r.evs = append(r.evs, refEvent{})
	copy(r.evs[i+1:], r.evs[i:])
	r.evs[i] = refEvent{key: key, id: id}
}

func (r *refQueue) stop(id int) bool {
	for i, e := range r.evs {
		if e.id == id {
			r.evs = append(r.evs[:i], r.evs[i+1:]...)
			return true
		}
	}
	return false
}

// pop removes the earliest event due by limit and moves the clock to it.
func (r *refQueue) pop(limit int64) (refEvent, bool) {
	if len(r.evs) == 0 || r.evs[0].key > limit {
		return refEvent{}, false
	}
	e := r.evs[0]
	r.evs = append(r.evs[:0], r.evs[1:]...)
	r.now = e.key
	return e, true
}

// refEngine runs one refQueue per lane; a lane's callbacks touch only
// that lane, exactly the Sharded contract.
type refEngine struct {
	h     *diffHarness
	lanes []refQueue
}

func newRefEngine(h *diffHarness, lanes int) *refEngine {
	e := &refEngine{h: h, lanes: make([]refQueue, lanes)}
	for i := range e.lanes {
		e.lanes[i].now = t0.UnixNano()
	}
	return e
}

func (e *refEngine) now(lane int) int64 { return e.lanes[lane].now }

func (e *refEngine) schedule(lane int, _ progOp, key int64, id int) { e.lanes[lane].at(key, id) }

func (e *refEngine) stop(id int) bool {
	for i := range e.lanes {
		if e.lanes[i].stop(id) {
			return true
		}
	}
	return false
}

func (e *refEngine) runUntil(limit int64) {
	for lane := range e.lanes {
		for {
			ev, ok := e.lanes[lane].pop(limit)
			if !ok {
				break
			}
			e.h.fired(lane, ev.id, ev.key)
		}
	}
}

func (e *refEngine) pending() int {
	n := 0
	for _, q := range e.lanes {
		n += len(q.evs)
	}
	return n
}

// diffEngine is what a program can do to an engine under test, plus a
// structural check of its queues.
type diffEngine interface {
	now(lane int) int64
	schedule(lane int, op progOp, key int64, id int)
	stop(id int) bool
	runUntil(limit int64)
	pending() int
	check() error
}

func (e *refEngine) check() error { return nil }

// checkWheel verifies the wheel's slot chains: every marked slot holds a
// chain, every chain is doubly linked and filed where its events say, and
// the chains hold exactly count events (so no unmarked slot holds one).
func checkWheel(q *equeue) error {
	n := 0
	for k := range q.wheel.levels {
		l := &q.wheel.levels[k]
		for wi, word := range l.occ {
			for ; word != 0; word &= word - 1 {
				slot := wi<<6 + bits.TrailingZeros64(word)
				if l.slots[slot] == nil {
					return fmt.Errorf("level %d slot %d marked but empty", k, slot)
				}
				var prev *event
				for ev := l.slots[slot]; ev != nil; prev, ev = ev, ev.wnext {
					if level, at := ev.wheelPos(); ev.wprev != prev || ev.state&evInWheel == 0 || level != k || at != slot {
						return fmt.Errorf("level %d slot %d: chain entry %d misfiled or mislinked", k, slot, n)
					}
					n++
				}
			}
		}
	}
	if n != q.wheel.count {
		return fmt.Errorf("chains hold %d events, count says %d", n, q.wheel.count)
	}
	return nil
}

// schedEngine drives the serial Scheduler: all lanes are one queue.
type schedEngine struct {
	s      *Scheduler
	h      *diffHarness
	timers []Timer
}

func (e *schedEngine) now(int) int64 { return e.s.Now().UnixNano() }

func (e *schedEngine) fireArg(arg any) { e.h.fired(0, arg.(int), e.now(0)) }

func (e *schedEngine) schedule(_ int, op progOp, key int64, id int) {
	d := time.Duration(key - e.now(0))
	switch op {
	case opAt:
		e.timers[id] = e.s.At(time.Unix(0, key).UTC(), func() { e.h.fired(0, id, e.now(0)) })
	case opAfter:
		e.timers[id] = e.s.After(d, func() { e.h.fired(0, id, e.now(0)) })
	default:
		e.timers[id] = e.s.AfterArg(d, e.fireArg, id)
	}
}

func (e *schedEngine) stop(id int) bool     { return e.timers[id].Stop() }
func (e *schedEngine) runUntil(limit int64) { e.s.RunUntil(time.Unix(0, limit).UTC()) }
func (e *schedEngine) pending() int         { return e.s.pending() }

func (e *schedEngine) check() error {
	e.s.mu.Lock()
	defer e.s.mu.Unlock()
	return checkWheel(&e.s.q)
}

// laneEngine drives a Sharded engine's lanes; every op is a lane
// AfterArg, an At becoming its delay from the lane clock.
type laneEngine struct {
	eng    *Sharded
	timers []ShardTimer
	fire   []func(any) // per lane, bound once
}

func newLaneEngine(h *diffHarness, lanes, ids int) *laneEngine {
	e := &laneEngine{eng: NewSharded(t0, 1, lanes, time.Millisecond), timers: make([]ShardTimer, ids)}
	for lane := 0; lane < lanes; lane++ {
		sh := e.eng.Shard(lane)
		e.fire = append(e.fire, func(arg any) { h.fired(sh.id, arg.(int), sh.nowKey) })
	}
	return e
}

func (e *laneEngine) now(lane int) int64 { return e.eng.Shard(lane).nowKey }

func (e *laneEngine) schedule(lane int, _ progOp, key int64, id int) {
	sh := e.eng.Shard(lane)
	e.timers[id] = sh.AfterArg(time.Duration(key-sh.nowKey), e.fire[lane], id)
}

func (e *laneEngine) stop(id int) bool     { return e.timers[id].Stop() }
func (e *laneEngine) runUntil(limit int64) { e.eng.Run(time.Unix(0, limit).UTC()) }
func (e *laneEngine) pending() int         { return e.eng.Pending() }

func (e *laneEngine) check() error {
	for _, sh := range e.eng.shards {
		if err := checkWheel(&sh.q); err != nil {
			return fmt.Errorf("lane %d: %w", sh.id, err)
		}
	}
	return nil
}

// --- random programs --------------------------------------------------------

type progOp int

const (
	opAt progOp = iota
	opAfter
	opAfterArg
	opStop
	opRun
)

// delaySpec is drawn with the program but resolved against a clock when
// used, so an edge case lands exactly on a band edge of wherever the
// queue is by then.
type delaySpec struct {
	d   int64 // a plain offset, when bit == 0
	bit uint  // else the k-th 2^bit boundary past the clock, plus jit ns
	k   int64
	jit int64
}

func (s delaySpec) at(clock int64) int64 {
	if s.bit == 0 {
		return clock + s.d
	}
	return (clock>>s.bit+s.k)<<s.bit + s.jit
}

// genDelay draws from every tier the queue tells apart.
func genDelay(rng *rand.Rand) delaySpec {
	switch rng.Intn(8) {
	case 0:
		return delaySpec{d: rng.Int63n(1<<wheelTickBits) - 1<<10} // sub-tick heap; a few in the past
	case 1, 2:
		return delaySpec{d: rng.Int63n(1 << wheelGeometry[1].lowBit)} // level 0
	case 3:
		return delaySpec{d: rng.Int63n(1 << wheelGeometry[2].lowBit)} // level 1
	case 4:
		return delaySpec{d: rng.Int63n(1 << wheelHorizonBit)} // level 2
	case 5:
		return delaySpec{d: 1<<wheelHorizonBit + rng.Int63n(1<<wheelHorizonBit)} // beyond the horizon
	default: // a slot, level or horizon edge, ±1 ns: where drains and cascades turn
		edges := [...]uint{wheelTickBits, wheelGeometry[1].lowBit, wheelGeometry[2].lowBit, wheelHorizonBit}
		return delaySpec{bit: edges[rng.Intn(len(edges))], k: 1 + rng.Int63n(3), jit: rng.Int63n(3) - 1}
	}
}

// refLanes is the most lanes a program spreads over; a run on fewer
// (any divisor) folds lane l onto l mod lanes, so timers that share a
// lane in the program share one in every run.
const refLanes = 8

type progStep struct {
	op   progOp
	lane int       // schedule ops: the lane in a refLanes-lane run, mod the lanes there are
	id   int       // schedule ops: the new timer; opStop: its target
	when delaySpec // schedule ops: due key from the lane clock; opRun: limit from the last one
}

// reaction is what firing timer id does: stop a timer of its own lane,
// and (root timers only) schedule a child, whose id is the root's plus 1.
type reaction struct {
	kill    int // -1: none
	child   bool
	childOp progOp
	delay   delaySpec
}

type program struct {
	steps []progStep
	lane  []int // per root timer (id/2)
	react []reaction
}

func genProgram(seed int64, n int) *program {
	rng := rand.New(rand.NewSource(seed))
	p := &program{}
	// Half the timers reuse one of a few delays, so slot chains grow long
	// and stops of recent timers unlink neighbours from their middles.
	hot := []delaySpec{genDelay(rng), genDelay(rng), genDelay(rng), genDelay(rng)}
	for len(p.steps) < n {
		switch r := rng.Intn(20); {
		case r < 11:
			when := genDelay(rng)
			if rng.Intn(2) == 0 {
				when = hot[rng.Intn(len(hot))]
			}
			p.steps = append(p.steps, progStep{op: progOp(r % 3), lane: rng.Intn(refLanes), id: 2 * len(p.lane), when: when})
			p.lane = append(p.lane, p.steps[len(p.steps)-1].lane)
		case r < 16 && len(p.lane) > 0:
			root := rng.Intn(len(p.lane))
			if rng.Intn(2) == 0 {
				root = max(0, len(p.lane)-1-rng.Intn(8))
			}
			p.steps = append(p.steps, progStep{op: opStop, id: 2*root + rng.Intn(2)})
		case r < 19:
			p.steps = append(p.steps, progStep{op: opRun, when: delaySpec{d: rng.Int63n(1 << 36)}})
		default:
			p.steps = append(p.steps, progStep{op: opRun, when: genDelay(rng)})
		}
	}
	p.steps = append(p.steps, progStep{op: opRun, when: delaySpec{d: 1 << 58}})
	p.react = make([]reaction, 2*len(p.lane))
	for id := range p.react {
		r := &p.react[id]
		r.kill = -1
		if rng.Intn(4) == 0 {
			for try := 0; try < 4*refLanes; try++ {
				if m := rng.Intn(len(p.lane)); p.lane[m] == p.lane[id/2] {
					r.kill = 2*m + rng.Intn(2)
					break
				}
			}
		}
		if id%2 == 0 && rng.Intn(3) == 0 {
			r.child, r.childOp, r.delay = true, progOp(rng.Intn(3)), genDelay(rng)
		}
	}
	return p
}

// diffHarness runs a program on one engine and logs everything it can
// observe: per lane each firing's id and key, followed by its kill's
// Stop result; per step the Stop result (or -1) and Pending().
type diffHarness struct {
	prog  *program
	eng   diffEngine
	lanes int
	limit int64
	fires [][]int64
	steps []int64
}

func newDiffHarness(prog *program, lanes int) *diffHarness {
	return &diffHarness{prog: prog, lanes: lanes, limit: t0.UnixNano(), fires: make([][]int64, lanes)}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (h *diffHarness) fired(lane, id int, key int64) {
	h.fires[lane] = append(h.fires[lane], int64(id), key)
	r := h.prog.react[id]
	if r.kill >= 0 {
		h.fires[lane] = append(h.fires[lane], b2i(h.eng.stop(r.kill)))
	}
	if r.child {
		h.eng.schedule(lane, r.childOp, r.delay.at(key), id+1)
	}
}

func (h *diffHarness) step(st progStep) {
	res := int64(-1)
	switch st.op {
	case opRun:
		h.limit = max(h.limit, st.when.at(h.limit))
		h.eng.runUntil(h.limit)
	case opStop:
		res = b2i(h.eng.stop(st.id))
	default:
		lane := st.lane % h.lanes
		h.eng.schedule(lane, st.op, st.when.at(h.eng.now(lane)), st.id)
	}
	h.steps = append(h.steps, res, int64(h.eng.pending()))
}

func firstDiff(a, b []int64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestQueueMatchesReference runs random programs of At/After/AfterArg/
// Stop/run-until steps, whose delays span every tier (sub-tick heap,
// wheel levels 0–2, slot and level edges where cascades happen, beyond
// the horizon) and whose firings stop and schedule timers in turn, on the
// Scheduler and on 1-, 2- and 8-lane Sharded engines. After every step the
// fire order with keys, every Stop result and Pending() must equal the
// sorted-slice reference's.
func TestQueueMatchesReference(t *testing.T) {
	engines := []struct {
		name  string
		lanes int
		build func(h *diffHarness, ids int) diffEngine
	}{
		{"scheduler", 1, func(h *diffHarness, ids int) diffEngine {
			return &schedEngine{s: New(t0, 1), h: h, timers: make([]Timer, ids)}
		}},
		{"sharded/1", 1, func(h *diffHarness, ids int) diffEngine { return newLaneEngine(h, 1, ids) }},
		{"sharded/2", 2, func(h *diffHarness, ids int) diffEngine { return newLaneEngine(h, 2, ids) }},
		{"sharded/8", refLanes, func(h *diffHarness, ids int) diffEngine { return newLaneEngine(h, refLanes, ids) }},
	}
	for seed := int64(1); seed <= 8; seed++ {
		prog := genProgram(seed, 1500)
		for _, e := range engines {
			ref := newDiffHarness(prog, e.lanes)
			ref.eng = newRefEngine(ref, e.lanes)
			got := newDiffHarness(prog, e.lanes)
			got.eng = e.build(got, len(prog.react))
			for i, st := range prog.steps {
				ref.step(st)
				got.step(st)
				if err := got.eng.check(); err != nil {
					t.Fatalf("seed %d %s: step %d (op %d): %v", seed, e.name, i, st.op, err)
				}
				if d := firstDiff(got.steps, ref.steps); d >= 0 {
					t.Fatalf("seed %d %s: step %d (op %d): Stop/Pending log %v, reference %v",
						seed, e.name, i, st.op, got.steps[d&^1:], ref.steps[d&^1:])
				}
				for lane := range got.fires {
					if d := firstDiff(got.fires[lane], ref.fires[lane]); d >= 0 {
						t.Fatalf("seed %d %s: step %d (op %d): lane %d fire log diverges at entry %d:\n got %v\nwant %v",
							seed, e.name, i, st.op, lane, d, got.fires[lane][d:min(d+9, len(got.fires[lane]))],
							ref.fires[lane][d:min(d+9, len(ref.fires[lane]))])
					}
				}
			}
			if got.eng.pending() != 0 {
				t.Fatalf("seed %d %s: %d events pending after the final drain", seed, e.name, got.eng.pending())
			}
		}
	}
}
