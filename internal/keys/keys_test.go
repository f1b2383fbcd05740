package keys

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"p2pdrm/internal/cryptoutil"
)

func testRNG() *cryptoutil.SeededReader { return cryptoutil.NewSeededReader(1) }

func TestSerialWraps(t *testing.T) {
	if Serial(255).next() != 0 {
		t.Fatal("255.Next() != 0")
	}
	if Serial(0).distance(1) != 1 {
		t.Fatal("distance 0→1 != 1")
	}
	if Serial(255).distance(0) != 1 {
		t.Fatal("distance 255→0 != 1 across wrap")
	}
	if Serial(0).distance(255) != -1 {
		t.Fatal("distance 0→255 != -1")
	}
	if !Serial(0).newerThan(255) {
		t.Fatal("0 should be newer than 255 after wrap")
	}
	if Serial(5).newerThan(5) {
		t.Fatal("serial newer than itself")
	}
}

func TestScheduleRotation(t *testing.T) {
	s, err := NewSchedule(testRNG())
	if err != nil {
		t.Fatal(err)
	}
	k0 := s.Current()
	if k0.Serial != 0 {
		t.Fatalf("initial serial = %d, want 0", k0.Serial)
	}
	k1, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if k1.Serial != 1 {
		t.Fatalf("rotated serial = %d, want 1", k1.Serial)
	}
	if k1.Key == k0.Key {
		t.Fatal("rotation reused key material")
	}
	if s.Current().Serial != 1 {
		t.Fatal("Current not updated by Rotate")
	}
}

func TestScheduleSerialWrapsAfter256Rotations(t *testing.T) {
	s, _ := NewSchedule(testRNG())
	for i := 0; i < 256; i++ {
		if _, err := s.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Current().Serial != 0 {
		t.Fatalf("after 256 rotations serial = %d, want 0", s.Current().Serial)
	}
}

func TestContentKeyEncodeDecode(t *testing.T) {
	k, _ := cryptoutil.NewSymKey(testRNG())
	ck := ContentKey{Serial: 77, Key: k}
	dec, err := DecodeContentKey(ck.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec != ck {
		t.Fatal("decode(encode) != original")
	}
	if _, err := DecodeContentKey([]byte{1, 2}); err == nil {
		t.Fatal("short decode accepted")
	}
}

func TestRingAddAndGet(t *testing.T) {
	r := NewRing(4)
	k, _ := cryptoutil.NewSymKey(testRNG())
	if !r.Add(ContentKey{Serial: 10, Key: k}) {
		t.Fatal("first Add rejected")
	}
	got, ok := r.get(10)
	if !ok || got != k {
		t.Fatal("Get(10) missing or wrong")
	}
	if _, ok := r.get(11); ok {
		t.Fatal("Get(11) found a key never added")
	}
}

func TestRingDuplicateDiscarded(t *testing.T) {
	// §IV-E: a peer with multiple parents discards duplicated keys.
	r := NewRing(4)
	k, _ := cryptoutil.NewSymKey(testRNG())
	ck := ContentKey{Serial: 5, Key: k}
	if !r.Add(ck) {
		t.Fatal("first Add rejected")
	}
	if r.Add(ck) {
		t.Fatal("duplicate Add accepted")
	}
	if r.size() != 1 {
		t.Fatalf("Len = %d, want 1", r.size())
	}
}

func TestRingEvictsOldKeys(t *testing.T) {
	rng := testRNG()
	r := NewRing(3)
	for i := 0; i < 6; i++ {
		k, _ := cryptoutil.NewSymKey(rng)
		r.Add(ContentKey{Serial: Serial(i), Key: k})
	}
	if r.size() != 3 {
		t.Fatalf("Len = %d, want window of 3", r.size())
	}
	if _, ok := r.get(0); ok {
		t.Fatal("serial 0 not evicted (forward secrecy window)")
	}
	if _, ok := r.get(5); !ok {
		t.Fatal("latest serial evicted")
	}
}

func TestRingRejectsTooOld(t *testing.T) {
	rng := testRNG()
	r := NewRing(3)
	k, _ := cryptoutil.NewSymKey(rng)
	r.Add(ContentKey{Serial: 100, Key: k})
	k2, _ := cryptoutil.NewSymKey(rng)
	if r.Add(ContentKey{Serial: 90, Key: k2}) {
		t.Fatal("key far behind the window accepted")
	}
}

func TestRingOutOfOrderWithinWindow(t *testing.T) {
	rng := testRNG()
	r := NewRing(4)
	k1, _ := cryptoutil.NewSymKey(rng)
	k2, _ := cryptoutil.NewSymKey(rng)
	r.Add(ContentKey{Serial: 8, Key: k2})
	if !r.Add(ContentKey{Serial: 7, Key: k1}) {
		t.Fatal("slightly-late key within window rejected")
	}
	if got, _ := r.Latest(); got.Serial != 8 {
		t.Fatalf("Latest = %d, want 8", got.Serial)
	}
}

func TestRingLatestAcrossWrap(t *testing.T) {
	rng := testRNG()
	r := NewRing(4)
	k1, _ := cryptoutil.NewSymKey(rng)
	k2, _ := cryptoutil.NewSymKey(rng)
	r.Add(ContentKey{Serial: 255, Key: k1})
	r.Add(ContentKey{Serial: 0, Key: k2})
	got, ok := r.Latest()
	if !ok || got.Serial != 0 {
		t.Fatalf("Latest = %v %v, want serial 0 after wrap", got.Serial, ok)
	}
}

func TestRingSnapshot(t *testing.T) {
	rng := testRNG()
	r := NewRing(4)
	for i := 0; i < 3; i++ {
		k, _ := cryptoutil.NewSymKey(rng)
		r.Add(ContentKey{Serial: Serial(i), Key: k})
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d keys, want 3", len(snap))
	}
	seen := map[Serial]bool{}
	for _, ck := range snap {
		seen[ck.Serial] = true
	}
	for i := 0; i < 3; i++ {
		if !seen[Serial(i)] {
			t.Fatalf("snapshot missing serial %d", i)
		}
	}
}

func TestRingEmptyLatest(t *testing.T) {
	r := NewRing(4)
	if _, ok := r.Latest(); ok {
		t.Fatal("empty ring reported a latest key")
	}
}

func TestSealOpenPacket(t *testing.T) {
	rng := testRNG()
	sched, _ := NewSchedule(rng)
	ck := sched.Current()
	aad := []byte("channel-7")
	pkt, err := NewPacketSealer(ck).Seal(rng, []byte("frame-data"), aad)
	if err != nil {
		t.Fatal(err)
	}
	if Serial(pkt[0]) != ck.Serial {
		t.Fatalf("packet serial prefix = %d, want %d", pkt[0], ck.Serial)
	}
	r := NewRing(4)
	r.Add(ck)
	pt, err := OpenPacket(r, pkt, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, []byte("frame-data")) {
		t.Fatalf("pt = %q", pt)
	}
}

func TestOpenPacketUnknownSerial(t *testing.T) {
	rng := testRNG()
	sched, _ := NewSchedule(rng)
	pkt, _ := NewPacketSealer(sched.Current()).Seal(rng, []byte("x"), nil)
	r := NewRing(4) // empty: eavesdropper without the content key
	if _, err := OpenPacket(r, pkt, nil); !errors.Is(err, ErrUnknownSerial) {
		t.Fatalf("err = %v, want ErrUnknownSerial", err)
	}
}

func TestOpenPacketHijackDetected(t *testing.T) {
	// §IV-E goal (2): detect rogue injected content.
	rng := testRNG()
	sched, _ := NewSchedule(rng)
	ck := sched.Current()
	pkt, _ := NewPacketSealer(ck).Seal(rng, []byte("legit"), []byte("ch"))
	pkt[len(pkt)-1] ^= 1
	r := NewRing(4)
	r.Add(ck)
	if _, err := OpenPacket(r, pkt, []byte("ch")); !errors.Is(err, ErrHijack) {
		t.Fatalf("err = %v, want ErrHijack", err)
	}
}

func TestOpenPacketWrongChannelAAD(t *testing.T) {
	rng := testRNG()
	sched, _ := NewSchedule(rng)
	ck := sched.Current()
	pkt, _ := NewPacketSealer(ck).Seal(rng, []byte("x"), []byte("channel-A"))
	r := NewRing(4)
	r.Add(ck)
	if _, err := OpenPacket(r, pkt, []byte("channel-B")); !errors.Is(err, ErrHijack) {
		t.Fatalf("cross-channel replay: err = %v, want ErrHijack", err)
	}
}

func TestOpenPacketEmpty(t *testing.T) {
	r := NewRing(4)
	if _, err := OpenPacket(r, nil, nil); err == nil {
		t.Fatal("empty packet accepted")
	}
}

func TestForwardSecrecyAfterRotations(t *testing.T) {
	// A key lost to an attacker only decrypts its own interval: packets
	// sealed under later serials fail.
	rng := testRNG()
	sched, _ := NewSchedule(rng)
	old := sched.Current()
	for i := 0; i < DefaultWindow+1; i++ {
		_, _ = sched.Rotate()
	}
	pkt, _ := NewPacketSealer(sched.Current()).Seal(rng, []byte("later"), nil)
	attacker := NewRing(DefaultWindow)
	attacker.Add(old)
	if _, err := OpenPacket(attacker, pkt, nil); err == nil {
		t.Fatal("old key decrypted future content")
	}
}

// Property: serial distance is antisymmetric and newerThan is a strict
// order on any pair at distance != -128.
func TestSerialDistanceProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		sa, sb := Serial(a), Serial(b)
		d := sa.distance(sb)
		if d != -128 && sb.distance(sa) != -d {
			return false
		}
		if sa == sb {
			return !sa.newerThan(sb) && !sb.newerThan(sa)
		}
		if d == -128 {
			return true // ambiguous midpoint by design
		}
		return sa.newerThan(sb) != sb.newerThan(sa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: packets round-trip for any payload under any serial.
func TestPacketRoundTripProperty(t *testing.T) {
	rng := testRNG()
	f := func(serial uint8, payload []byte) bool {
		k, err := cryptoutil.NewSymKey(rng)
		if err != nil {
			return false
		}
		ck := ContentKey{Serial: Serial(serial), Key: k}
		pkt, err := NewPacketSealer(ck).Seal(rng, payload, []byte("ch"))
		if err != nil {
			return false
		}
		r := NewRing(4)
		r.Add(ck)
		pt, err := OpenPacket(r, pkt, []byte("ch"))
		if err != nil {
			return false
		}
		return bytes.Equal(pt, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Latest returns the newest held iteration (the tests' and FuzzRing's
// view of the ring head).
func (r *Ring) Latest() (ContentKey, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.has {
		return ContentKey{}, false
	}
	return ContentKey{Serial: r.latest, Key: r.keys[r.latest].Key()}, true
}

// get looks up the key for a packet serial, counted in the ring's stats
// like a playback lookup.
func (r *Ring) get(s Serial) (cryptoutil.SymKey, bool) {
	sk, ok := r.sealer(s)
	if !ok {
		return cryptoutil.SymKey{}, false
	}
	return sk.Key(), true
}

// sealer looks up the reusable SealKey form of the key for a packet serial.
func (r *Ring) sealer(s Serial) (*cryptoutil.SealKey, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sealerLocked(s)
}

// size reports how many iterations are held.
func (r *Ring) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.keys)
}
