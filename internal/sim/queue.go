package sim

import "math"

// equeue is the event storage shared by the serial Scheduler and the
// worker shards of the Sharded engine: a binary heap for the due-now
// band and long-horizon overflow, fronted by the hierarchical timer
// wheel for everything in between, plus the event slabs and freelist and
// the heap's dead-event (cancelled timer) accounting.
//
// equeue itself is not synchronized, and each queue owns its storage: no
// event ever moves between queues. The Scheduler guards its queue with
// s.mu; a Shard's queue is touched only by the shard's worker inside an
// epoch and by the engine goroutine between epochs (the Pending and
// earliest-work reads), which the worker phase's WaitGroup orders.
type equeue struct {
	events []heapEnt // binary heap: due-now band + long-horizon overflow
	wheel  wheel     // hierarchical timer wheel: near/mid-future events
	slab   []event   // uncarved rest of the current allocation chunk
	free   []*event  // every released event, uncapped
	dead   int       // cancelled events still occupying the heap
	seq    uint64
}

// eventSlab is how many events one allocation carves.
const eventSlab = 256

func (q *equeue) init(curKey int64) {
	q.wheel.init(curKey)
}

func (q *equeue) newEvent(key int64) *event {
	var ev *event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		if len(q.slab) == 0 {
			q.slab = make([]event, eventSlab)
		}
		ev = &q.slab[0]
		q.slab = q.slab[1:]
	}
	ev.key = key
	ev.seq = q.seq
	q.seq++
	return ev
}

// release recycles a fired or cancelled event onto the freelist, which
// has no cap: a queue's storage stays at its peak population and steady
// state allocates nothing. Bumping the generation (and clearing the dead,
// inWheel and position bits below it) invalidates any Timer still
// pointing at it.
func (q *equeue) release(ev *event) {
	ev.state = (ev.gen() + 1) << evGenShift
	ev.fnA, ev.arg = nil, nil
	q.free = append(q.free, ev)
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

// kill cancels a live event. A wheel resident is unlinked from its slot
// chain and recycled at once. A heap resident is marked dead in place and
// reclaimed when a pop skips it, or by a compaction once dead entries
// pass purgeFloor and form the heap's majority.
func (q *equeue) kill(ev *event) {
	if ev.state&evInWheel != 0 {
		q.wheel.unlink(ev)
		q.release(ev)
		return
	}
	ev.state |= evDead
	q.dead++
	if q.dead >= purgeFloor && q.dead*2 >= len(q.events) {
		q.purgeHeap()
	}
}

// purgeHeap compacts the heap in place, dropping every dead event.
// Without this, week-long runs accrete millions of cancelled RPC-timeout
// timers that would otherwise sit in the heap until their deadline.
func (q *equeue) purgeHeap() {
	live := q.events[:0]
	for _, ent := range q.events {
		if ent.ev.state&evDead != 0 {
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
	return len(q.events) - q.dead + q.wheel.count
}

// noLimit disables popThrough's deadline check.
const noLimit = int64(math.MaxInt64)

// earliestBound returns a lower bound on the key of the next live event
// (noLimit when the queue holds none). The wheel holds only live events
// and contributes its earliest occupied band's start, not the exact key;
// the heap top may be a dead event. So the bound may undershoot — never
// overshoot — which is the conservative direction for epoch scheduling.
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
		if ev.state&evDead != 0 {
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
