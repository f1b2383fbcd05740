package chserver

import (
	"bytes"
	"testing"
	"time"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/keys"
	"p2pdrm/internal/p2p"
	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/ticket"
)

var t0 = time.Date(2008, 6, 23, 20, 0, 0, 0, time.UTC)

type fixture struct {
	sched  *sim.Scheduler
	net    *simnet.Network
	cmKeys *cryptoutil.KeyPair
	rng    *cryptoutil.SeededReader
	srv    *Server
}

func newFixture(t *testing.T, mut func(*Config)) *fixture {
	t.Helper()
	s := sim.New(t0, 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: 5 * time.Millisecond}))
	rng := cryptoutil.NewSeededReader(13)
	cmKeys, _ := cryptoutil.NewKeyPair(rng)
	srvKeys, _ := cryptoutil.NewKeyPair(rng)
	cfg := Config{
		ChannelID:      "chA",
		ChanMgrKey:     cmKeys.Public(),
		Keys:           srvKeys,
		RekeyInterval:  time.Minute,
		KeyAdvance:     10 * time.Second,
		PacketInterval: 500 * time.Millisecond,
		RNG:            rng,
	}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := New(net.NewNode("root.chA"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{sched: s, net: net, cmKeys: cmKeys, rng: rng, srv: srv}
}

// joinViewer attaches a decrypting client peer to the server root.
func (f *fixture) joinViewer(t *testing.T, host int, onPacket func(uint64, []byte)) *p2p.Peer {
	t.Helper()
	addr := geo.Addr(100, 1, host)
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	peer, err := p2p.NewPeer(f.net.NewNode(addr), p2p.Config{
		ChannelID:  "chA",
		ChanMgrKey: f.cmKeys.Public(),
		Keys:       kp,
		RNG:        f.rng,
		OnPacket:   onPacket,
	})
	if err != nil {
		t.Fatal(err)
	}
	ct := &ticket.ChannelTicket{
		UserIN: uint64(host), ChannelID: "chA", NetAddr: string(addr),
		ClientKey: kp.Public(), Start: f.sched.Now(), Expiry: f.sched.Now().Add(time.Hour),
	}
	peer.SetTicket(ticket.SignChannel(ct, f.cmKeys))
	f.sched.Go(func() {
		if err := peer.JoinParent("root.chA", nil, 0); err != nil {
			t.Errorf("join: %v", err)
		}
	})
	return peer
}

func TestViewerReceivesDecryptablePackets(t *testing.T) {
	f := newFixture(t, nil)
	var frames [][]byte
	// The payload is only valid during the callback: keep a copy.
	f.joinViewer(t, 1, func(_ uint64, p []byte) { frames = append(frames, bytes.Clone(p)) })
	f.srv.Start()
	f.sched.RunUntil(t0.Add(10 * time.Second))
	f.srv.Stop()
	if len(frames) < 10 {
		t.Fatalf("viewer got %d frames in 10s at 2 fps, want ≥ 10", len(frames))
	}
	seq0, ok := FrameSeq(frames[0])
	if !ok {
		t.Fatal("frame too short")
	}
	seq1, _ := FrameSeq(frames[1])
	if seq1 != seq0+1 {
		t.Fatalf("non-consecutive seqs %d, %d", seq0, seq1)
	}
	if ts, ok := FrameTime(frames[0]); !ok || ts.Before(t0) {
		t.Fatalf("frame timestamp = %v", ts)
	}
}

func TestPlaybackSurvivesRekey(t *testing.T) {
	f := newFixture(t, func(c *Config) {
		c.RekeyInterval = 20 * time.Second
		c.KeyAdvance = 5 * time.Second
	})
	delivered := 0
	f.joinViewer(t, 1, func(uint64, []byte) { delivered++ })
	f.srv.Start()
	f.sched.RunUntil(t0.Add(90 * time.Second)) // several rotations
	f.srv.Stop()
	st := f.srv.Stats()
	if st.Rekeys < 3 {
		t.Fatalf("rekeys = %d, want ≥ 3", st.Rekeys)
	}
	// Every produced packet up to the stop must have been decryptable:
	// keys arrive in advance of use.
	if int64(delivered) < st.PacketsProduced-2 {
		t.Fatalf("delivered %d of %d packets across rekeys", delivered, st.PacketsProduced)
	}
}

func TestForwardSecrecyForLateJoiner(t *testing.T) {
	f := newFixture(t, func(c *Config) {
		c.RekeyInterval = 10 * time.Second
		c.KeyAdvance = 2 * time.Second
		c.PacketInterval = time.Second
	})
	f.srv.Start()
	// Record ciphertext packets as an eavesdropper on the wire would —
	// take them straight from the root's production.
	var earlyKey keys.ContentKey
	f.sched.At(t0.Add(time.Second), func() { earlyKey = f.srv.CurrentKey() })
	f.sched.RunUntil(t0.Add(70 * time.Second)) // > window×interval later
	late := f.joinViewer(t, 2, func(uint64, []byte) {})
	f.sched.RunUntil(t0.Add(75 * time.Second))
	f.srv.Stop()
	// The late joiner's ring must NOT contain the early key iteration.
	for _, k := range late.Ring().Snapshot() {
		if k == earlyKey {
			t.Fatal("late joiner holds an old content key — forward secrecy broken")
		}
	}
}

func TestStopHaltsProduction(t *testing.T) {
	f := newFixture(t, nil)
	f.srv.Start()
	f.sched.RunUntil(t0.Add(5 * time.Second))
	f.srv.Stop()
	f.sched.RunUntil(t0.Add(6 * time.Second)) // let loops observe the stop
	n := f.srv.Stats().PacketsProduced
	f.sched.RunUntil(t0.Add(30 * time.Second))
	if got := f.srv.Stats().PacketsProduced; got != n {
		t.Fatalf("production continued after Stop: %d → %d", n, got)
	}
}

func TestEmitOneDeterministic(t *testing.T) {
	f := newFixture(t, nil)
	var got []uint64
	f.joinViewer(t, 1, func(seq uint64, _ []byte) { got = append(got, seq) })
	f.sched.RunUntil(t0.Add(time.Second)) // complete join
	f.srv.Peer().InjectKey(f.srv.CurrentKey())
	f.srv.EmitOne()
	f.srv.EmitOne()
	f.sched.RunUntil(t0.Add(2 * time.Second))
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("seqs = %v, want [0 1]", got)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	s := sim.New(t0, 1)
	net := simnet.New(s)
	if _, err := New(net.NewNode("x"), Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestFrameHelpersRejectShort(t *testing.T) {
	if _, ok := FrameSeq([]byte{1, 2}); ok {
		t.Fatal("short frame parsed")
	}
	if _, ok := FrameTime(nil); ok {
		t.Fatal("nil frame parsed")
	}
}
