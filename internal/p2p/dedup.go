package p2p

// seenWindow is how many distinct sequence numbers a peer's duplicate
// filter remembers: a packet whose seq is among the last seenWindow
// distinct seqs it accepted is a duplicate (it arrived via a second
// parent); anything older is accepted again. A power of two, so ring
// positions wrap with a mask.
const seenWindow = 1 << 12

// The open-addressed index has twice the window's slots, so it never
// runs above half full and linear probes stay short.
const (
	seenSlotBits = 13
	seenSlots    = 1 << seenSlotBits
	seenSlotMask = seenSlots - 1
)

// seenTable is the fixed storage behind a dedup filter: the accepted
// seqs in arrival order (a ring) and a linear-probing index of ring
// positions. One table is 48 kB, taken from the Arena on a peer's first
// packet and handed back when it leaves; it never grows, rehashes or
// leaves tombstones, so filtering allocates nothing per packet.
type seenTable struct {
	seqs [seenWindow]uint64
	// slot holds 1 + a ring position, 0 for empty. Positions stay below
	// seenWindow, so they fit in 16 bits.
	slot [seenSlots]uint16
}

// seenHome is seq's preferred slot. Fibonacci hashing spreads
// consecutive and strided seqs across the whole index.
func seenHome(seq uint64) int {
	return int((seq * 0x9E3779B97F4A7C15) >> (64 - seenSlotBits))
}

// dedup is a peer's exact duplicate filter over the last seenWindow
// distinct seqs. Its zero value is empty; the table is attached on the
// first add.
type dedup struct {
	t *seenTable
	// accepted counts the seqs taken so far; the next one goes to ring
	// position accepted mod seenWindow, over the oldest once full.
	accepted int
}

// add records seq and reports whether it was new. A new seq beyond a
// full window evicts the oldest one.
func (d *dedup) add(seq uint64, a *Arena) bool {
	if d.t == nil {
		d.t = a.grabSeen()
	}
	t := d.t
	i := seenHome(seq)
	for ; t.slot[i] != 0; i = (i + 1) & seenSlotMask {
		if t.seqs[t.slot[i]-1] == seq {
			return false
		}
	}
	at := d.accepted & (seenWindow - 1)
	if d.accepted >= seenWindow {
		// Unlinking the oldest entry frees a slot and may shift others,
		// either of which can move seq's first free slot: probe again.
		d.unlink(at)
		for i = seenHome(seq); t.slot[i] != 0; i = (i + 1) & seenSlotMask {
		}
	}
	d.accepted++
	t.seqs[at] = seq
	t.slot[i] = uint16(at + 1)
	return true
}

// unlink removes ring position at from the index by backward-shift
// deletion: each later entry of the probe run whose home does not lie
// cyclically in (hole, itself] moves back into the hole, so lookups
// never meet a tombstone.
func (d *dedup) unlink(at int) {
	t := d.t
	hole := seenHome(t.seqs[at])
	for int(t.slot[hole]) != at+1 {
		hole = (hole + 1) & seenSlotMask
	}
	for i := (hole + 1) & seenSlotMask; t.slot[i] != 0; i = (i + 1) & seenSlotMask {
		home := seenHome(t.seqs[t.slot[i]-1])
		if (i-home)&seenSlotMask >= (i-hole)&seenSlotMask {
			t.slot[hole] = t.slot[i]
			hole = i
		}
	}
	t.slot[hole] = 0
}

// reset empties the filter and hands its table back to the arena.
func (d *dedup) reset(a *Arena) {
	if d.t != nil {
		a.releaseSeen(d.t)
	}
	*d = dedup{}
}
