package keys

import (
	"bytes"
	"errors"
	"testing"

	"p2pdrm/internal/cryptoutil"
)

// TestPacketSealerSealAppendMatchesSeal pins the batched content path:
// SealAppend with the same RNG stream is byte-identical to Seal, sizes
// exactly to SealedLen, performs no extra allocation given capacity,
// and its output opens through the normal ring path.
func TestPacketSealerSealAppendMatchesSeal(t *testing.T) {
	sched, err := NewSchedule(testRNG())
	if err != nil {
		t.Fatal(err)
	}
	k := sched.Current()
	payload := bytes.Repeat([]byte{0xAB}, 1317)
	aad := []byte("chan-42")

	want, err := NewPacketSealer(k).Seal(cryptoutil.NewSeededReader(7), payload, aad)
	if err != nil {
		t.Fatal(err)
	}

	ps := NewPacketSealer(k)
	if got := ps.SealedLen(len(payload)); got != len(want) {
		t.Fatalf("SealedLen(%d) = %d; Seal produced %d bytes", len(payload), got, len(want))
	}
	buf := make([]byte, 0, ps.SealedLen(len(payload)))
	got, err := ps.SealAppend(buf, cryptoutil.NewSeededReader(7), payload, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("SealAppend output differs from Seal")
	}

	// Appending after a prefix must leave the prefix intact.
	prefixed := append([]byte("hdr|"), 0)
	out, err := ps.SealAppend(prefixed, cryptoutil.NewSeededReader(7), payload, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:5], []byte("hdr|\x00")) || !bytes.Equal(out[5:], want) {
		t.Fatal("SealAppend with prefix corrupted buffer layout")
	}

	// The sealed packet must open through the receiver path.
	ring := NewRing(4)
	ring.Add(k)
	pt, err := OpenPacket(ring, got, aad)
	if err != nil {
		t.Fatalf("OpenPacket on SealAppend output: %v", err)
	}
	if !bytes.Equal(pt, payload) {
		t.Fatal("round-trip payload mismatch")
	}
}

// TestPacketSealerSealAppendNoAlloc pins the single-buffer property the
// fan-out relies on: with pre-sized capacity, SealAppend (after its
// first call warms the AAD scratch) does not allocate.
func TestPacketSealerSealAppendNoAlloc(t *testing.T) {
	sched, _ := NewSchedule(testRNG())
	ps := NewPacketSealer(sched.Current())
	payload := make([]byte, 512)
	aad := []byte("chan")
	rng := cryptoutil.NewSeededReader(3)
	buf := make([]byte, 0, ps.SealedLen(len(payload)))
	if _, err := ps.SealAppend(buf, rng, payload, aad); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ps.SealAppend(buf[:0], rng, payload, aad); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("SealAppend allocated %.1f times per call with pre-sized buffer", allocs)
	}
}

// TestOpenPacketAppendAllocatesOnly pins the playback open: into a dst
// with room for the plaintext, OpenPacketAppend allocates nothing — the
// serial||aad binding is rebuilt in the ring's scratch, not per open —
// and returns the bytes in dst's array. OpenPacket is the same function
// with dst == nil, a packet under a foreign key is still a hijack, and
// the reused binding still binds: another channel's aad, shorter or
// longer, fails, and the right one opens again afterwards.
func TestOpenPacketAppendAllocatesOnly(t *testing.T) {
	sched, _ := NewSchedule(testRNG())
	k := sched.Current()
	ring := NewRing(4)
	ring.Add(k)
	aad := []byte("chan-7")
	payload := bytes.Repeat([]byte{0x3C}, 1024)
	packet, err := NewPacketSealer(k).Seal(testRNG(), payload, aad)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, len(packet))
	pt, err := OpenPacketAppend(dst, ring, packet, aad) // also builds the AEAD
	if err != nil || !bytes.Equal(pt, payload) {
		t.Fatalf("OpenPacketAppend = %d bytes, %v", len(pt), err)
	}
	if &pt[0] != &dst[:1][0] {
		t.Fatal("OpenPacketAppend did not open into dst")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := OpenPacketAppend(dst, ring, packet, aad); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("OpenPacketAppend allocates %.1f objects with a sized dst, want 0", allocs)
	}
	if viaNil, err := OpenPacket(ring, packet, aad); err != nil || !bytes.Equal(viaNil, payload) {
		t.Fatalf("OpenPacket = %d bytes, %v", len(viaNil), err)
	}

	rogue := ContentKey{Serial: k.Serial}
	rogue.Key[0] = 0xEE
	hijacked, _ := NewPacketSealer(rogue).Seal(testRNG(), payload, aad)
	if out, err := OpenPacketAppend(dst, ring, hijacked, aad); !errors.Is(err, ErrHijack) || out != nil {
		t.Fatalf("packet under a foreign key: %d bytes, err = %v, want nil, ErrHijack", len(out), err)
	}
	for _, other := range []string{"chan", "chan-77"} {
		if _, err := OpenPacketAppend(dst, ring, packet, []byte(other)); !errors.Is(err, ErrHijack) {
			t.Fatalf("packet opened under aad %q: err = %v, want ErrHijack", other, err)
		}
	}
	if pt, err := OpenPacketAppend(dst, ring, packet, aad); err != nil || !bytes.Equal(pt, payload) {
		t.Fatalf("OpenPacketAppend after a foreign aad = %d bytes, %v", len(pt), err)
	}
}

// TestRingAddBuildsNoAEAD pins the lazy ring: storing an iteration costs
// the key holder and (at most) its map slot — not the ~1.3 kB AES-GCM
// set-up, which a peer that never receives a packet under that key must
// never pay. The first packet still opens, and a packet sealed under
// another key is still a hijack.
func TestRingAddBuildsNoAEAD(t *testing.T) {
	sched, _ := NewSchedule(testRNG())
	ring := NewRing(4)
	k := sched.Current()
	allocs := testing.AllocsPerRun(200, func() {
		ring.Add(k)
		k, _ = sched.Rotate()
	})
	if allocs > 2 {
		t.Fatalf("Ring.Add allocates %.1f objects per new key, want <= 2 (an AEAD was built?)", allocs)
	}

	cur := sched.Current()
	ring.Add(cur)
	aad := []byte("chan-1")
	packet, err := NewPacketSealer(cur).Seal(testRNG(), []byte("frame"), aad)
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := OpenPacket(ring, packet, aad); err != nil || string(pt) != "frame" {
		t.Fatalf("OpenPacket after Add = %q, %v", pt, err)
	}
	rogue := ContentKey{Serial: cur.Serial}
	rogue.Key[0] = 0xEE
	hijacked, _ := NewPacketSealer(rogue).Seal(testRNG(), []byte("frame"), aad)
	if _, err := OpenPacket(ring, hijacked, aad); !errors.Is(err, ErrHijack) {
		t.Fatalf("packet under a foreign key: err = %v, want ErrHijack", err)
	}
}

// TestSharedRingsAllocBudget: rings built on one memo, like the peers of
// a channel, hold the very SealKey the Channel Server seals under, so N
// rings that each open a packet under the key build one AEAD between
// them: the Channel Server's. A sharing ring's first open costs its AAD
// scratch and nothing more, where a private ring's also builds an AEAD.
func TestSharedRingsAllocBudget(t *testing.T) {
	m := cryptoutil.NewMemo()
	sched, _ := NewSchedule(testRNG())
	ck := sched.Current()
	aad := []byte("chan-1")
	ps := NewSharedPacketSealer(ck, m)
	packet, err := ps.Seal(testRNG(), []byte("frame"), aad)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		r := NewSharedRing(DefaultWindow, m)
		r.Add(ck)
		if pt, err := OpenPacket(r, packet, aad); err != nil || string(pt) != "frame" {
			t.Fatalf("ring %d: OpenPacket = %q, %v", i, pt, err)
		}
		if r.keys[ck.Serial] != ps.sealer {
			t.Fatalf("ring %d holds its own SealKey, not the Channel Server's", i)
		}
	}

	buf := make([]byte, 0, len(packet))
	held := func(shared *cryptoutil.Memo, open bool) float64 {
		return testing.AllocsPerRun(100, func() {
			r := NewSharedRing(DefaultWindow, shared)
			r.Add(ck)
			if open {
				if _, err := OpenPacketAppend(buf[:0], r, packet, aad); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	ringOnly, sharedOpen, privateOpen := held(m, false), held(m, true), held(nil, true)
	if sharedOpen-ringOnly != 1 {
		t.Fatalf("a sharing ring's first open allocates %.0f objects beyond the ring's %.0f, want 1 (its AAD scratch; an AEAD was built?)", sharedOpen-ringOnly, ringOnly)
	}
	// What sharing saves each ring: a SealKey and its AEAD build.
	full := append([]byte{byte(ck.Serial)}, aad...)
	sealKeyAndAEAD := testing.AllocsPerRun(100, func() { ck.Key.Sealer().OpenAppend(buf[:0], packet[1:], full) })
	if privateOpen-sharedOpen != sealKeyAndAEAD || sealKeyAndAEAD < 3 {
		t.Fatalf("a private ring's first open allocates %.0f objects, a sharing one's %.0f; a SealKey with its AEAD is %.0f",
			privateOpen, sharedOpen, sealKeyAndAEAD)
	}
}
