package sim

import "math"

// equeue is the event storage shared by the serial Scheduler and the
// worker shards of the Sharded engine: a binary heap for the due-now
// band and long-horizon overflow, fronted by the hierarchical timer
// wheel for everything in between, plus the event freelist and the
// dead-event (cancelled timer) accounting.
//
// equeue itself is not synchronized. The Scheduler guards its queue
// with s.mu; a Shard's queue is touched only by the shard's worker
// inside an epoch and by the engine goroutine between epochs (the
// Pending and earliest-work reads), which the worker phase's WaitGroup
// orders.
type equeue struct {
	events []heapEnt // binary heap: due-now band + long-horizon overflow
	wheel  wheel     // hierarchical timer wheel: near/mid-future events
	free   []*event  // event freelist (bounded)
	dead   int       // cancelled events still occupying the heap
	seq    uint64
}

func (q *equeue) init(curKey int64) {
	q.wheel.init(curKey)
}

func (q *equeue) newEvent(key int64) *event {
	var ev *event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.key = key
	ev.seq = q.seq
	q.seq++
	return ev
}

// release recycles a fired or purged event. Bumping gen invalidates any
// Timer still pointing at it.
func (q *equeue) release(ev *event) {
	ev.gen++
	ev.fn, ev.fnA, ev.arg, ev.p, ev.w = nil, nil, nil, nil, nil
	ev.dead = false
	ev.inWheel = false
	ev.wnext = nil
	if len(q.free) < maxFree {
		q.free = append(q.free, ev)
	}
}

// schedule files a new event at key into the wheel or, failing that
// (imminent, sub-tick, or beyond the horizon), the heap.
func (q *equeue) schedule(key int64) *event {
	ev := q.newEvent(key)
	if !q.wheel.insert(ev) {
		q.heapPush(ev)
	}
	return ev
}

// kill marks a live event dead and triggers compaction when dead events
// dominate. The floor counts dead events across BOTH tiers — a workload
// that cancels wheel-resident timers must reclaim memory even while a
// large live heap population (or vice versa) keeps the global dead
// fraction low, so once past the floor each tier compacts on its own
// dead majority, and a global dead majority sweeps both. The slot is
// reclaimed either here (bulk purge), when a pop skips it (heap), or at
// band drain (wheel).
func (q *equeue) kill(ev *event) {
	ev.dead = true
	if ev.inWheel {
		q.wheel.dead++
	} else {
		q.dead++
	}
	totalDead := q.dead + q.wheel.dead
	if totalDead < purgeFloor {
		return
	}
	if totalDead*2 >= len(q.events)+q.wheel.count {
		q.purge()
		return
	}
	if ev.inWheel {
		if q.wheel.dead*2 >= q.wheel.count {
			q.purgeWheel()
		}
	} else if q.dead*2 >= len(q.events) {
		q.purgeHeap()
	}
}

// purge compacts both tiers, dropping every dead event.
func (q *equeue) purge() {
	if q.wheel.dead > 0 {
		q.purgeWheel()
	}
	if q.dead > 0 {
		q.purgeHeap()
	}
}

// purgeHeap compacts the heap in place, dropping every dead event.
// Without this, week-long runs accrete millions of cancelled RPC-timeout
// timers that would otherwise sit in the heap until their deadline.
func (q *equeue) purgeHeap() {
	live := q.events[:0]
	for _, ent := range q.events {
		if ent.ev.dead {
			q.release(ent.ev)
		} else {
			live = append(live, ent)
		}
	}
	for i := len(live); i < len(q.events); i++ {
		q.events[i] = heapEnt{}
	}
	q.events = live
	q.dead = 0
	for i := len(q.events)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
}

// pending reports the number of live scheduled events in O(1).
func (q *equeue) pending() int {
	return len(q.events) - q.dead + q.wheel.count - q.wheel.dead
}

// noLimit disables popThrough's deadline check.
const noLimit = int64(math.MaxInt64)

// earliestBound returns a lower bound on the key of the next live event
// (noLimit when the queue holds none). The wheel contributes its
// earliest occupied band's start, not the exact key, so the bound may
// undershoot — never overshoot — which is the conservative direction
// for epoch scheduling.
func (q *equeue) earliestBound() int64 {
	bound := noLimit
	if len(q.events) > 0 {
		bound = q.events[0].key
	}
	if q.wheel.count > 0 {
		if band, _, _, ok := q.wheel.earliest(); ok && band < bound {
			bound = band
		}
	}
	return bound
}

// popThrough returns the earliest live event with key <= limit,
// reclaiming any dead events it skips over, or nil when none qualifies
// (the queue may still hold later events). Before trusting the heap top
// it drains every wheel band starting at or before that key, so heap
// and wheel events interleave in exact (key, seq) order.
func (q *equeue) popThrough(limit int64) *event {
	for {
		if q.wheel.count > 0 {
			for {
				band, level, slot, ok := q.wheel.earliest()
				if !ok || band > limit {
					break
				}
				if len(q.events) > 0 && q.events[0].key < band {
					break
				}
				q.wheelDrain(band, level, slot)
			}
		}
		if len(q.events) == 0 || q.events[0].key > limit {
			return nil
		}
		ev := q.heapPop()
		if ev.dead {
			q.dead--
			q.release(ev)
			continue
		}
		return ev
	}
}

// --- event heap -----------------------------------------------------------
//
// A hand-rolled binary heap ordered by (key, seq). Entries carry the
// ordering key inline so sifts compare against the flat heap array
// without dereferencing events: at wheel-drain populations (thousands
// of entries, tens of KB) the whole sift stays in cache instead of
// pointer-chasing cold event structs.

type heapEnt struct {
	key int64
	seq uint64
	ev  *event
}

func entLess(a, b heapEnt) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (q *equeue) heapPush(ev *event) {
	q.events = append(q.events, heapEnt{key: ev.key, seq: ev.seq, ev: ev})
	q.siftUp(len(q.events) - 1)
}

func (q *equeue) heapPop() *event {
	h := q.events
	top := h[0].ev
	n := len(h) - 1
	h[0] = h[n]
	h[n] = heapEnt{}
	q.events = h[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return top
}

func (q *equeue) siftUp(i int) {
	h := q.events
	ent := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !entLess(ent, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ent
}

func (q *equeue) siftDown(i int) {
	h := q.events
	n := len(h)
	ent := h[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && entLess(h[right], h[left]) {
			least = right
		}
		if !entLess(h[least], ent) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = ent
}
