package exp

import (
	"os"
	"testing"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/keys"
	"p2pdrm/internal/wire"
)

// TestTimeShiftConformance is the tentpole's acceptance bar: under live
// viewing, uniform seeks, Zipf seeks, and mid-event rights lapses, the
// conformance oracle must report zero false grants and zero false
// denials — and the forward-secrecy machinery must actually have been
// exercised (deep seeks refused by the viewer's own ring, lapsed tickets
// refused with typed codes).
func TestTimeShiftConformance(t *testing.T) {
	res, err := RunTimeShift(TimeShiftConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cr := res.Conform
	if !cr.Clean() {
		t.Fatalf("conformance violations: %s\n%v", cr.Summary(), cr.Violations)
	}
	if res.Frames == 0 || cr.Decrypts == 0 {
		t.Fatal("no playback observed — scenario inert")
	}
	if res.SeekFrames == 0 {
		t.Fatal("no history frames fetched — seek path never ran")
	}
	// Forward secrecy must have shown its edge: some seeks reached frames
	// whose keys slid out of the ring window and were refused.
	if cr.WindowDenials == 0 {
		t.Error("no window denials — seeks never crossed the key horizon")
	}
	if res.Ring.MissesEvicted == 0 {
		t.Error("no evicted-serial ring misses recorded")
	}
	// Shallow seeks must decrypt: bucket 0 (current interval) opens fully.
	if len(res.Buckets) == 0 || res.Buckets[0].Intervals != 0 || res.Buckets[0].Opened == 0 {
		t.Errorf("no shallow-depth decrypts: %+v", res.Buckets)
	}
	// Lapsed viewers: tickets capped at the rights end (zero overruns is
	// part of Clean), probes denied with the typed policy code, and their
	// post-eviction seeks refused as expired.
	if res.Lapsed == 0 || res.PostLapseDenies != res.Lapsed {
		t.Errorf("post-lapse denies = %d, want %d", res.PostLapseDenies, res.Lapsed)
	}
	if res.SeekRejects[wire.CodeExpiredTicket.String()] == 0 {
		t.Error("no expired-ticket seek refusals — lapsed viewers kept reading")
	}
}

// Recorded with TimeShiftConfig{Seed: 42} on the serialized engine.
// Regenerate with GOLDEN_PRINT=1. A change here means the time-shift
// scenario's observable behaviour moved.
const goldenTimeShift = "v=16 lapsed=4 frames=7508 seeks=330 sframes=9484 serr=53 deny=4 part=0 rej.expired_ticket=10 d0=1771/1771/0 d1=1172/1172/0 d2=840/837/3 d3=984/312/672 d4=1187/0/1187 d5=859/0/859 d6=751/0/751 d7=512/0/512 d8=442/0/442 d9=267/0/267 d10=187/0/187 d11=198/0/198 d12=180/0/180 d13=113/0/113 d14=21/0/21 ring=11445/3813/3813/0 conform[decrypts=16992 ok=11600 falseGrant=0 falseDeny=0 windowBreach=0 ticketOverrun=0 graceGrant=40 windowDeny=5392] sent=9348 drop=0 drm.chanlist=16/0/0/0 drm.login1=40/0/0/0 drm.login2=40/0/0/0 drm.redirect=40/0/0/0 drm.switch1=65/0/0/0 drm.switch2=65/0/0/0"

func TestTimeShiftDeterminismGolden(t *testing.T) {
	res, err := RunTimeShift(TimeShiftConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	got := res.fingerprint()
	if os.Getenv("GOLDEN_PRINT") != "" {
		t.Logf("timeshift golden:\n%s", got)
	} else if got != goldenTimeShift {
		t.Errorf("timeshift results moved\n got: %s\nwant: %s", got, goldenTimeShift)
	}
}

// TestTimeShiftDeterministicForFixedSeed: seek target draws, rekey
// timing, partition-free arrival jitter and the conformance verdict must
// be byte-deterministic for a fixed seed, and the seed must matter.
func TestTimeShiftDeterministicForFixedSeed(t *testing.T) {
	cfg := TimeShiftConfig{Seed: 9, Viewers: 8}
	a, err := RunTimeShift(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTimeShift(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := a.fingerprint(), b.fingerprint(); fa != fb {
		t.Fatalf("same seed, different runs:\n  a: %s\n  b: %s", fa, fb)
	}
	cfg.Seed = 10
	c, err := RunTimeShift(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.fingerprint() == a.fingerprint() {
		t.Fatal("different seeds produced identical fingerprints — fingerprint too coarse")
	}
}

// TestTimeShiftPartitionChaos severs a viewer subset from the root
// across the live→seek boundary: their feed stalls and seeks fail at the
// transport until the heal. Recovery must bring them back and the
// conformance verdict must stay clean — a partition may deny service but
// never corrupt rights enforcement.
func TestTimeShiftPartitionChaos(t *testing.T) {
	res, err := RunTimeShift(TimeShiftConfig{Seed: 33, FaultPartition: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitioned == 0 {
		t.Fatal("no viewers partitioned — fault not injected")
	}
	if res.Net.DroppedLinkCut == 0 {
		t.Error("no link-cut drops — partition never intersected traffic")
	}
	if !res.Conform.Clean() {
		t.Fatalf("partition corrupted rights enforcement: %s\n%v",
			res.Conform.Summary(), res.Conform.Violations)
	}
	if res.SeekFrames == 0 {
		t.Fatal("no seeks succeeded even after the heal")
	}
}

// TestOpenSeekFrameCountsOnlyRingOpens pins how a seek frame is scored
// for the oracle: a success is a frame the viewer's ring authenticates.
// An empty frame, bare payload bytes and a tampered frame are failures,
// so none of them is recorded as a successful decrypt of serial 0 (the
// first key iteration's serial, which the ring holds here).
func TestOpenSeekFrameCountsOnlyRingOpens(t *testing.T) {
	rng := cryptoutil.NewSeededReader(3)
	sched, err := keys.NewSchedule(rng)
	if err != nil {
		t.Fatal(err)
	}
	ck := sched.Current()
	ring := keys.NewRing(0)
	ring.Add(ck)
	open := func(f wire.HistoryFrame) ([]byte, error) { return keys.OpenPacket(ring, f.Packet, []byte("ch")) }
	sealed, err := keys.NewPacketSealer(ck).Seal(rng, []byte("frame"), []byte("ch"))
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), sealed...)
	tampered[len(tampered)-1] ^= 1
	for _, tc := range []struct {
		name   string
		packet []byte
		ok     bool
	}{
		{"sealed under a held key", sealed, true},
		{"empty", nil, false},
		{"bare payload", []byte{0, 'f', 'r', 'a', 'm', 'e'}, false},
		{"tampered", tampered, false},
	} {
		serial, ok := openSeekFrame(open, wire.HistoryFrame{Seq: 1, Packet: tc.packet})
		if ok != tc.ok || serial != ck.Serial {
			t.Errorf("%s: openSeekFrame = serial %d, ok %v; want serial %d, ok %v", tc.name, serial, ok, ck.Serial, tc.ok)
		}
	}
}
