package sim

import "math/bits"

// Hierarchical timer wheel: the far-future tier of the event queue.
//
// The dominant timer classes in a protocol simulation are fixed-delay:
// RPC timeouts (~seconds, almost always cancelled), ticket renewals and
// evictions (~minutes), sampler ticks (~minutes to an hour). Routing
// them through a binary heap costs O(log n) pointer-chasing sifts per
// fire at populations where n reaches the viewer count. The wheel makes
// insertion and cancellation O(1): an event is pushed onto the slot
// chain covering its deadline band and only ever sorted when its band
// comes due, at which point the band's survivors drain into the binary
// heap, which then holds a single ~1ms band instead of the whole future.
//
// Slot chains are intrusive and doubly linked (event.wnext/wprev), so
// filing an event is a few pointer writes with no slice growth or
// backing-array allocation, cascading a band is a relink, not a copy,
// and cancelling unlinks the event and recycles it at once. Chains hold
// only live events: there is no dead-event count and no wheel purge.
//
// Levels are powers of two over the event key (UnixNano), kept wide so
// an event cascades at most twice before it reaches the heap:
//
//	level 0: 4096 slots x 2^20 ns (~1.05 ms)  spans ~4.3 s
//	level 1: 1024 slots x 2^32 ns (~4.3 s)    spans ~1.2 h
//	level 2: 1024 slots x 2^42 ns (~1.2 h)    spans ~52 days
//
// Events due within one tick of the cursor go straight to the heap
// (they would drain immediately, and short event chains stay on the
// baseline heap path); events beyond the level-2 span live in the heap
// too (the long-horizon overflow tier: month-scale sentinels are rare
// and cheap there). A level-k band that comes due cascades: its events
// re-insert relative to the band start and land at level k-1 or below.
//
// Ordering is exact, not approximate: popLocked drains every band whose
// start is <= the heap top's key before trusting the heap top, so two
// events with equal keys always meet in the heap and fire in seq order.
// The golden determinism fingerprints are therefore byte-identical with
// the wheel on or off.

// wheelTickBits is the level-0 granularity: 2^20 ns ~ 1.05 ms.
const wheelTickBits = 20

// wheelGeometry fixes each level's slot-index bit field within the key.
var wheelGeometry = [...]struct{ lowBit, bits uint }{
	{20, 12}, // 4096 slots, 1.05 ms each
	{32, 10}, // 1024 slots, 4.3 s each
	{42, 10}, // 1024 slots, 1.2 h each
}

const wheelLevels = len(wheelGeometry)

// wheelHorizonBit: events sharing no bits >= this with the cursor
// overflow to the heap.
const wheelHorizonBit = 52

// wlevel is one wheel level. Occupancy is a two-tier bitmap: sum bit i
// set iff occ word i is non-zero, so locating the earliest occupied
// slot is two TrailingZeros64 calls regardless of slot count.
type wlevel struct {
	lowBit uint
	mask   int
	slots  []*event // heads of intrusive wnext/wprev chains
	occ    []uint64
	sum    uint64
}

func (l *wlevel) mark(slot int) {
	l.occ[slot>>6] |= 1 << (uint(slot) & 63)
	l.sum |= 1 << uint(slot>>6)
}

func (l *wlevel) clear(slot int) {
	w := slot >> 6
	l.occ[w] &^= 1 << (uint(slot) & 63)
	if l.occ[w] == 0 {
		l.sum &^= 1 << uint(w)
	}
}

// firstSlot returns the lowest occupied slot index (-1 when empty).
func (l *wlevel) firstSlot() int {
	if l.sum == 0 {
		return -1
	}
	w := bits.TrailingZeros64(l.sum)
	return w<<6 + bits.TrailingZeros64(l.occ[w])
}

// wheel is the slot storage.
type wheel struct {
	cur    int64 // cursor key: all wheel events have key > cur
	count  int   // events resident in slots, every one live
	levels [wheelLevels]wlevel

	// Cached earliest band, so a pop after an insert-heavy stretch does
	// not rescan the bitmaps: inserts lower the cache monotonically,
	// drains and emptied slots invalidate it.
	nextValid bool
	nextOK    bool
	nextBand  int64
	nextLevel int
	nextSlot  int
}

func (w *wheel) init(cur int64) {
	w.cur = cur
	for k := range w.levels {
		g := wheelGeometry[k]
		n := 1 << g.bits
		w.levels[k] = wlevel{
			lowBit: g.lowBit,
			mask:   n - 1,
			slots:  make([]*event, n),
			occ:    make([]uint64, n>>6),
		}
	}
}

// levelFor places a key relative to the cursor: -1 means "heap" (past,
// imminent, or beyond the horizon).
func (w *wheel) levelFor(key int64) int {
	if key-w.cur < 1<<wheelTickBits {
		return -1 // past or imminent: due-now heap band
	}
	d := uint64(key ^ w.cur)
	switch {
	case d>>wheelGeometry[1].lowBit == 0:
		return 0
	case d>>wheelGeometry[2].lowBit == 0:
		return 1
	case d>>wheelHorizonBit == 0:
		return 2
	default:
		return -1 // beyond horizon: heap overflow tier
	}
}

// insert files ev into its slot chain; false means the caller must heap
// it.
func (w *wheel) insert(ev *event) bool {
	level := w.levelFor(ev.key)
	if level < 0 {
		return false
	}
	l := &w.levels[level]
	slot := int(uint64(ev.key)>>l.lowBit) & l.mask
	head := l.slots[slot]
	if head != nil {
		head.wprev = ev
	}
	ev.wnext = head
	l.slots[slot] = ev
	l.mark(slot)
	w.count++
	ev.state = ev.state&^(1<<evGenShift-1) | uint64(level<<evSlotBits|slot)<<evPosShift | evInWheel
	if w.nextValid {
		band := ev.key &^ (int64(1)<<l.lowBit - 1)
		if !w.nextOK || band < w.nextBand {
			w.nextOK, w.nextBand, w.nextLevel, w.nextSlot = true, band, level, slot
		}
	}
	return true
}

// earliest locates the next band to come due. Within a level every
// occupied slot is strictly ahead of the cursor in the same rotation
// (anything else would have been filed at a higher level or the heap),
// and every level-k band precedes every level-k+1 band, so the first
// occupied slot of the lowest occupied level is the global minimum.
func (w *wheel) earliest() (bandStart int64, level, slot int, ok bool) {
	if w.count == 0 {
		return 0, 0, 0, false
	}
	if w.nextValid {
		return w.nextBand, w.nextLevel, w.nextSlot, w.nextOK
	}
	for k := range w.levels {
		l := &w.levels[k]
		if slot = l.firstSlot(); slot >= 0 {
			low := l.lowBit
			top := low + uint(bits.Len(uint(l.mask)))
			base := w.cur &^ (int64(1)<<top - 1)
			bandStart, level, ok = base|int64(slot)<<low, k, true
			break
		}
	}
	w.nextValid, w.nextOK = true, ok
	w.nextBand, w.nextLevel, w.nextSlot = bandStart, level, slot
	return bandStart, level, slot, ok
}

// wheelPos decodes the level and slot insert packed into ev.state.
func (ev *event) wheelPos() (level, slot int) {
	pos := int(ev.state&(1<<evGenShift-1)) >> evPosShift
	return pos >> evSlotBits, pos & (1<<evSlotBits - 1)
}

// unlink removes a cancelled event from its slot chain in O(1). A slot
// left empty loses its occupancy bit and the cached earliest band, so
// neither the cursor nor Sharded's epoch bound ever stops at a band that
// holds nothing live.
func (w *wheel) unlink(ev *event) {
	level, slot := ev.wheelPos()
	l := &w.levels[level]
	if ev.wprev != nil {
		ev.wprev.wnext = ev.wnext
	} else {
		l.slots[slot] = ev.wnext
	}
	if ev.wnext != nil {
		ev.wnext.wprev = ev.wprev
	} else if ev.wprev == nil {
		l.clear(slot)
		w.nextValid = false
	}
	ev.wnext, ev.wprev = nil, nil
	ev.state &^= evInWheel
	w.count--
}

// wheelDrain advances the cursor to the band and empties it: a
// level-0 band feeds the heap (which then sorts only a ~1ms band), a
// higher band cascades its chain into the levels below by relinking.
func (q *equeue) wheelDrain(bandStart int64, level, slot int) {
	w := &q.wheel
	if bandStart > w.cur {
		w.cur = bandStart
	}
	l := &w.levels[level]
	ev := l.slots[slot]
	l.slots[slot] = nil
	l.clear(slot)
	w.nextValid = false
	for ev != nil {
		next := ev.wnext
		ev.wnext, ev.wprev = nil, nil
		ev.state &^= evInWheel
		w.count--
		if level == 0 || !w.insert(ev) {
			q.heapPush(ev)
		}
		ev = next
	}
}
