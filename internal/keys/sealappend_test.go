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
// with room for the plaintext, OpenPacketAppend allocates only the
// serial||aad binding (packetAAD, which escapes through cipher.AEAD) —
// no plaintext — and returns the bytes in dst's array. OpenPacket is the
// same function with dst == nil, and a packet under a foreign key is
// still a hijack.
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
	if allocs > 1 {
		t.Fatalf("OpenPacketAppend allocates %.1f objects with a sized dst, want only packetAAD's 1", allocs)
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
