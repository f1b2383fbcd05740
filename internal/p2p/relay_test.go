package p2p

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"p2pdrm/internal/geo"
	"p2pdrm/internal/keys"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

// buildFanout creates root ← relay ← {kid1, kid2}, all joined, with one
// content key distributed, and returns the root, the relay and the kids.
func buildFanout(t *testing.T, f *fixture, kidCfg func(*Config)) (root, relay *Peer, kids [2]*Peer, ps *keys.PacketSealer) {
	t.Helper()
	root, _ = f.newPeer(t, "root", nil)
	relayAddr := geo.Addr(100, 1, 1)
	relay, relayKP := f.newPeer(t, relayAddr, nil)
	relay.SetTicket(f.mintTicket(relayKP, relayAddr, "chA", 24*time.Hour))
	for i := range kids {
		addr := geo.Addr(100, 1, 10+i)
		kid, kp := f.newPeer(t, addr, kidCfg)
		kid.SetTicket(f.mintTicket(kp, addr, "chA", 24*time.Hour))
		kids[i] = kid
	}
	var errs [3]error
	f.sched.Go(func() {
		errs[0] = relay.JoinParent("root", nil, 0)
		errs[1] = kids[0].JoinParent(relayAddr, nil, 0)
		errs[2] = kids[1].JoinParent(relayAddr, nil, 0)
	})
	f.sched.RunUntil(f.sched.Now().Add(time.Minute))
	for _, err := range errs {
		if err != nil {
			t.Fatalf("fan-out join: %v", err)
		}
	}
	sched, _ := keys.NewSchedule(f.rng)
	ck := sched.Current()
	root.InjectKey(ck)
	f.sched.RunUntil(f.sched.Now().Add(time.Minute))
	return root, relay, kids, keys.NewPacketSealer(ck)
}

// sealedFrame builds one ContentPush frame the way the Channel Server
// does: header and sealed packet in a single exact-size buffer.
func sealedFrame(t *testing.T, f *fixture, ps *keys.PacketSealer, sub uint8, seq uint64, payload []byte) (enc []byte, hdrLen int) {
	t.Helper()
	hdrLen = wire.ContentPushHeaderLen("chA")
	sealedLen := ps.SealedLen(len(payload))
	enc = make([]byte, 0, hdrLen+sealedLen)
	enc = wire.AppendContentPushHeader(enc, "chA", sub, seq, sealedLen)
	enc, err := ps.SealAppend(enc, f.rng, payload, []byte("chA"))
	if err != nil {
		t.Fatal(err)
	}
	return enc, hdrLen
}

// TestRelayForwardsReceivedFrame: a relay sends its children the frame it
// received — byte-for-byte the ContentPush a re-encode would produce, and
// the very same backing array (the network passes payloads by reference,
// so this is the root's buffer), not a copy.
func TestRelayForwardsReceivedFrame(t *testing.T) {
	f := newFixture(t)
	root, relay, kids, ps := buildFanout(t, f, nil)
	var got [2][][]byte
	for i, kid := range kids {
		i := i
		// Tap the kid's content endpoint: the raw payload as delivered.
		kid.Node().Handle(wire.SvcContent, func(_ simnet.Addr, payload []byte) ([]byte, error) {
			got[i] = append(got[i], payload)
			return nil, nil
		})
	}
	enc, hdrLen := sealedFrame(t, f, ps, 2, 41, []byte("frame-41"))
	root.InjectFrame(2, 41, enc[hdrLen:], enc)
	f.sched.RunUntil(f.sched.Now().Add(time.Second))

	want := (&wire.ContentPush{ChannelID: "chA", Substream: 2, Seq: 41, Packet: enc[hdrLen:]}).Encode()
	for i := range kids {
		if len(got[i]) != 1 {
			t.Fatalf("kid %d received %d frames, want 1", i, len(got[i]))
		}
		out := got[i][0]
		if !bytes.Equal(out, want) {
			t.Fatalf("kid %d: relayed frame differs from ContentPush.Encode:\n%x\nvs\n%x", i, out, want)
		}
		if &out[0] != &enc[0] || len(out) != len(enc) {
			t.Fatalf("kid %d: relay re-encoded the frame instead of forwarding the one it received", i)
		}
	}
	if st := relay.Stats(); st.PacketsForwarded != 2 {
		t.Fatalf("relay stats = %+v, want 2 forwarded", st)
	}
}

// TestRelayAllocBudget pins the allocation-free relay hop: once every
// dedup window has wrapped, a sealed frame crossing root → relay → two
// children allocates nothing. The relay forwards the frame it received
// (no decode copy, no re-encode, no *ContentPush), the decoded ChannelID
// shares the peer's string, the dedup table evicts in place and simnet
// recycles the send envelope. The map-based dedup and string decode paid
// one object per hop, and before the zero-copy data plane about six.
func TestRelayAllocBudget(t *testing.T) {
	f := newFixture(t)
	root, relay, kids, ps := buildFanout(t, f, nil)
	const hops = 3 // root→relay, relay→kid1, relay→kid2
	warm := seenWindow + 512
	const measured = 256
	frames := make([][]byte, warm+2*measured) // AllocsPerRun warms up with one batch
	hdrLen := 0
	for i := range frames {
		frames[i], hdrLen = sealedFrame(t, f, ps, 0, uint64(i), []byte("frame"))
	}
	next := 0
	emit := func() {
		enc := frames[next]
		root.InjectFrame(0, uint64(next), enc[hdrLen:], enc)
		next++
		f.sched.RunUntil(f.sched.Now().Add(50 * time.Millisecond))
	}
	for next < warm {
		emit()
	}
	// Count the whole batch in one run: AllocsPerRun truncates its per-run
	// average, which would hide a fraction of an object per frame.
	perFrame := testing.AllocsPerRun(1, func() {
		for i := 0; i < measured; i++ {
			emit()
		}
	}) / measured
	t.Logf("%.2f objects per frame over %d hops", perFrame, hops)
	if perFrame != 0 {
		t.Fatalf("a relayed frame allocates %.2f objects over %d hops, want 0", perFrame, hops)
	}
	for _, kid := range kids {
		if got := kid.Stats().PacketsReceived; got != int64(next) {
			t.Fatalf("kid received %d of %d frames", got, next)
		}
	}
	if relay.Stats().PacketsForwarded != int64(2*next) {
		t.Fatalf("relay stats = %+v", relay.Stats())
	}
}

// TestRelayRetainedHeapBudget pins what a receiving peer keeps for
// duplicate filtering once its window has wrapped: one 48 kB dedup table
// (4 096 ring seqs plus an 8 192-slot index). The map it replaced, with
// one delete per insert once full, kept growing past its 4 096 live keys:
// that design read ≈ 410 kB here.
func TestRelayRetainedHeapBudget(t *testing.T) {
	const kids, budget = 16, 56 << 10
	f := newFixture(t)
	root, _ := f.newPeer(t, "root", func(c *Config) { c.MaxChildren = kids })
	peers := make([]*Peer, kids)
	for i := range peers {
		addr := geo.Addr(100, 3, 1+i)
		kid, kp := f.newPeer(t, addr, nil)
		kid.SetTicket(f.mintTicket(kp, addr, "chA", 24*time.Hour))
		peers[i] = kid
		f.sched.Go(func() {
			if err := kid.JoinParent("root", nil, 0); err != nil {
				t.Errorf("join %d: %v", i, err)
			}
		})
	}
	f.sched.RunUntil(f.sched.Now().Add(time.Minute))
	sched, _ := keys.NewSchedule(f.rng)
	ck := sched.Current()
	root.InjectKey(ck)
	f.sched.RunUntil(f.sched.Now().Add(time.Minute))
	ps := keys.NewPacketSealer(ck)
	frames := make([][]byte, seenWindow+512)
	hdrLen := 0
	for i := range frames {
		frames[i], hdrLen = sealedFrame(t, f, ps, 0, uint64(i), []byte(fmt.Sprint(i)))
	}
	before := retainedHeap()
	for i, enc := range frames {
		root.InjectFrame(0, uint64(i), enc[hdrLen:], enc)
		f.sched.RunUntil(f.sched.Now().Add(10 * time.Millisecond))
	}
	// The root filters what it injects too: kids+1 tables in all.
	per := (int64(retainedHeap()) - int64(before)) / (kids + 1)
	t.Logf("retained heap per receiving peer: %d bytes", per)
	for _, kid := range peers {
		if got := kid.Stats().PacketsReceived; got != int64(len(frames)) {
			t.Fatalf("kid received %d of %d frames", got, len(frames))
		}
	}
	if per > budget {
		t.Errorf("a receiving peer retains %d bytes for dedup, budget %d", per, budget)
	}
	runtime.KeepAlive(frames)
}

func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestPlaybackReusesBuffer: a decrypting leaf opens every packet into its
// one playback buffer, so OnPacket's payload is the same array each time
// (valid only until the callback returns) and still carries the right
// plaintext per frame.
func TestPlaybackReusesBuffer(t *testing.T) {
	f := newFixture(t)
	var got []string
	var bufs []*byte
	root, _, _, ps := buildFanout(t, f, func(c *Config) {
		c.OnPacket = func(_ uint64, payload []byte) {
			got = append(got, string(payload))
			bufs = append(bufs, &payload[0])
		}
	})
	for seq := uint64(0); seq < 3; seq++ {
		enc, hdrLen := sealedFrame(t, f, ps, 0, seq, []byte{'p', byte('0' + seq)})
		root.InjectFrame(0, seq, enc[hdrLen:], enc)
		f.sched.RunUntil(f.sched.Now().Add(time.Second))
	}
	// Two kids each deliver three frames.
	if len(got) != 6 {
		t.Fatalf("delivered %d frames, want 6", len(got))
	}
	for i, s := range got {
		if want := string([]byte{'p', byte('0' + i/2)}); s != want {
			t.Fatalf("delivery %d = %q, want %q", i, s, want)
		}
	}
	// Kids alternate per frame; each kid reuses its own buffer.
	if bufs[0] != bufs[2] || bufs[2] != bufs[4] || bufs[1] != bufs[3] || bufs[3] != bufs[5] {
		t.Fatal("playback allocated a fresh plaintext per frame")
	}
}
