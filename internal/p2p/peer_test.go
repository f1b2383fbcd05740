package p2p

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/keys"
	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/ticket"
	"p2pdrm/internal/wire"
)

var t0 = time.Date(2008, 6, 23, 20, 0, 0, 0, time.UTC)

type fixture struct {
	sched  *sim.Scheduler
	net    *simnet.Network
	cmKeys *cryptoutil.KeyPair
	rng    *cryptoutil.SeededReader
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	s := sim.New(t0, 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: 5 * time.Millisecond}))
	rng := cryptoutil.NewSeededReader(11)
	cmKeys, _ := cryptoutil.NewKeyPair(rng)
	return &fixture{sched: s, net: net, cmKeys: cmKeys, rng: rng}
}

// newPeer builds a peer at addr with its own identity keys.
func (f *fixture) newPeer(t *testing.T, addr simnet.Addr, mut func(*Config)) (*Peer, *cryptoutil.KeyPair) {
	t.Helper()
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	cfg := Config{
		ChannelID:  "chA",
		ChanMgrKey: f.cmKeys.Public(),
		Keys:       kp,
		RNG:        f.rng,
	}
	if mut != nil {
		mut(&cfg)
	}
	p, err := NewPeer(f.net.NewNode(addr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, kp
}

// mintTicket signs a Channel Ticket as the Channel Manager would.
func (f *fixture) mintTicket(kp *cryptoutil.KeyPair, addr simnet.Addr, channelID string, lifetime time.Duration) []byte {
	ct := &ticket.ChannelTicket{
		UserIN:    7,
		ChannelID: channelID,
		NetAddr:   string(addr),
		ClientKey: kp.Public(),
		Start:     f.sched.Now(),
		Expiry:    f.sched.Now().Add(lifetime),
	}
	return ticket.SignChannel(ct, f.cmKeys)
}

func TestJoinHappyPathDeliversSessionAndKeys(t *testing.T) {
	f := newFixture(t)
	root, _ := f.newPeer(t, "root", nil)
	sched, _ := keys.NewSchedule(f.rng)
	root.InjectKey(sched.Current())

	addr := geo.Addr(100, 1, 1)
	cli, kp := f.newPeer(t, addr, nil)
	cli.SetTicket(f.mintTicket(kp, addr, "chA", 10*time.Minute))
	var jerr error
	f.sched.Go(func() { jerr = cli.JoinParent("root", nil, 0) })
	f.sched.RunUntil(t0.Add(time.Minute))
	if jerr != nil {
		t.Fatal(jerr)
	}
	if cli.parentCount() != 1 || root.Children() != 1 {
		t.Fatalf("parents=%d children=%d", cli.parentCount(), root.Children())
	}
	// The current content key arrived sealed under the session key.
	if len(cli.Ring().Snapshot()) != 1 {
		t.Fatalf("client ring has %d keys, want 1", len(cli.Ring().Snapshot()))
	}
	if got, _ := ringKey(cli.Ring(), sched.Current().Serial); got != sched.Current().Key {
		t.Fatal("client's key differs from the schedule's")
	}
}

func TestJoinRejectedForForgedTicket(t *testing.T) {
	f := newFixture(t)
	f.newPeer(t, "root", nil)
	addr := geo.Addr(100, 1, 1)
	cli, kp := f.newPeer(t, addr, nil)
	rogue, _ := cryptoutil.NewKeyPair(f.rng)
	ct := &ticket.ChannelTicket{
		UserIN: 7, ChannelID: "chA", NetAddr: string(addr),
		ClientKey: kp.Public(), Start: t0, Expiry: t0.Add(time.Hour),
	}
	cli.SetTicket(ticket.SignChannel(ct, rogue)) // signed by the wrong CM
	var jerr error
	f.sched.Go(func() { jerr = cli.JoinParent("root", nil, 0) })
	f.sched.RunUntil(t0.Add(time.Minute))
	if !errors.Is(jerr, ErrJoinRejected) {
		t.Fatalf("err = %v, want ErrJoinRejected", jerr)
	}
}

func TestJoinRejectedExpiredTicket(t *testing.T) {
	f := newFixture(t)
	f.newPeer(t, "root", nil)
	addr := geo.Addr(100, 1, 1)
	cli, kp := f.newPeer(t, addr, nil)
	cli.SetTicket(f.mintTicket(kp, addr, "chA", time.Minute))
	var jerr error
	f.sched.Go(func() {
		f.sched.Sleep(2 * time.Minute)
		jerr = cli.JoinParent("root", nil, 0)
	})
	f.sched.RunUntil(t0.Add(10 * time.Minute))
	if !errors.Is(jerr, ErrJoinRejected) {
		t.Fatalf("err = %v, want ErrJoinRejected", jerr)
	}
}

func TestJoinRejectedNetAddrMismatch(t *testing.T) {
	// A captured Channel Ticket presented from another address fails.
	f := newFixture(t)
	f.newPeer(t, "root", nil)
	victim := geo.Addr(100, 1, 1)
	attackerAddr := geo.Addr(100, 1, 66)
	attacker, kp := f.newPeer(t, attackerAddr, nil)
	attacker.SetTicket(f.mintTicket(kp, victim, "chA", time.Hour))
	var jerr error
	f.sched.Go(func() { jerr = attacker.JoinParent("root", nil, 0) })
	f.sched.RunUntil(t0.Add(time.Minute))
	if !errors.Is(jerr, ErrJoinRejected) {
		t.Fatalf("err = %v, want ErrJoinRejected", jerr)
	}
}

func TestJoinRejectedWrongChannel(t *testing.T) {
	f := newFixture(t)
	f.newPeer(t, "root", nil) // carries chA
	addr := geo.Addr(100, 1, 1)
	cli, kp := f.newPeer(t, addr, nil)
	cli.SetTicket(f.mintTicket(kp, addr, "chOTHER", time.Hour))
	var jerr error
	f.sched.Go(func() { jerr = cli.JoinParent("root", nil, 0) })
	f.sched.RunUntil(t0.Add(time.Minute))
	if !errors.Is(jerr, ErrJoinRejected) {
		t.Fatalf("err = %v, want ErrJoinRejected", jerr)
	}
}

func TestJoinRejectedAtCapacity(t *testing.T) {
	f := newFixture(t)
	f.newPeer(t, "root", func(c *Config) { c.MaxChildren = 1 })
	var errs [2]error
	for i := 0; i < 2; i++ {
		addr := geo.Addr(100, 1, i+1)
		cli, kp := f.newPeer(t, addr, nil)
		cli.SetTicket(f.mintTicket(kp, addr, "chA", time.Hour))
		i := i
		delay := time.Duration(i) * time.Second
		f.sched.Go(func() {
			f.sched.Sleep(delay)
			errs[i] = cli.JoinParent("root", nil, 0)
		})
	}
	f.sched.RunUntil(t0.Add(time.Minute))
	if errs[0] != nil {
		t.Fatalf("first join failed: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrJoinRejected) {
		t.Fatalf("second join err = %v, want ErrJoinRejected (capacity)", errs[1])
	}
}

// buildChain creates root ← mid ← leaf, all joined, and returns them.
func buildChain(t *testing.T, f *fixture, leafCfg func(*Config)) (root, mid, leaf *Peer) {
	t.Helper()
	root, _ = f.newPeer(t, "root", nil)
	midAddr := geo.Addr(100, 1, 1)
	leafAddr := geo.Addr(100, 1, 2)
	mid, midKP := f.newPeer(t, midAddr, nil)
	leaf, leafKP := f.newPeer(t, leafAddr, leafCfg)
	mid.SetTicket(f.mintTicket(midKP, midAddr, "chA", time.Hour))
	leaf.SetTicket(f.mintTicket(leafKP, leafAddr, "chA", time.Hour))
	var e1, e2 error
	f.sched.Go(func() {
		e1 = mid.JoinParent("root", nil, 0)
		e2 = leaf.JoinParent(midAddr, nil, 0)
	})
	f.sched.RunUntil(t0.Add(time.Minute))
	if e1 != nil || e2 != nil {
		t.Fatalf("chain join: %v %v", e1, e2)
	}
	return root, mid, leaf
}

func TestKeyPropagatesDownTree(t *testing.T) {
	f := newFixture(t)
	root, mid, leaf := buildChain(t, f, nil)
	sched, _ := keys.NewSchedule(f.rng)
	ck, _ := sched.Rotate()
	root.InjectKey(ck)
	f.sched.RunUntil(t0.Add(2 * time.Minute))
	if _, ok := ringKey(mid.Ring(), ck.Serial); !ok {
		t.Fatal("mid peer missing rotated key")
	}
	if _, ok := ringKey(leaf.Ring(), ck.Serial); !ok {
		t.Fatal("leaf peer missing rotated key (tree relay broken)")
	}
}

func TestContentFlowsAndDecryptsAtLeaf(t *testing.T) {
	f := newFixture(t)
	var got [][]byte
	root, _, leaf := buildChain(t, f, func(c *Config) {
		// payload is only valid during the callback: keep a copy.
		c.OnPacket = func(_ uint64, payload []byte) { got = append(got, bytes.Clone(payload)) }
	})
	sched, _ := keys.NewSchedule(f.rng)
	ck := sched.Current()
	root.InjectKey(ck)
	f.sched.RunUntil(t0.Add(time.Minute))
	pkt, err := keys.NewPacketSealer(ck).Seal(f.rng, []byte("frame-1"), []byte("chA"))
	if err != nil {
		t.Fatal(err)
	}
	root.relayFrame(0, 1, pkt, nil)
	f.sched.RunUntil(t0.Add(2 * time.Minute))
	if len(got) != 1 || string(got[0]) != "frame-1" {
		t.Fatalf("leaf delivered %q", got)
	}
	if leaf.Stats().PacketsDelivered != 1 {
		t.Fatalf("stats = %+v", leaf.Stats())
	}
}

func TestDuplicateKeysAndPacketsDiscarded(t *testing.T) {
	f := newFixture(t)
	root, mid, _ := buildChain(t, f, nil)
	sched, _ := keys.NewSchedule(f.rng)
	ck, _ := sched.Rotate()
	root.InjectKey(ck)
	root.InjectKey(ck) // duplicate injection
	pkt, _ := keys.NewPacketSealer(ck).Seal(f.rng, []byte("x"), []byte("chA"))
	root.relayFrame(0, 5, pkt, nil)
	root.relayFrame(0, 5, pkt, nil)
	f.sched.RunUntil(t0.Add(time.Minute))
	st := mid.Stats()
	if st.KeysReceived != 1 {
		t.Fatalf("mid KeysReceived = %d, want 1", st.KeysReceived)
	}
	if st.PacketsReceived != 1 {
		t.Fatalf("mid PacketsReceived = %d, want 1", st.PacketsReceived)
	}
	if root.Stats().PacketsDuplicate != 1 || root.Stats().KeysDuplicate != 1 {
		t.Fatalf("root stats = %+v", root.Stats())
	}
}

func TestChildEvictedOnTicketExpiryWithoutRenewal(t *testing.T) {
	// §IV-D: "a peer will terminate a peering relationship whose Channel
	// Ticket has expired if a renewal ticket is not presented."
	f := newFixture(t)
	root, _ := f.newPeer(t, "root", nil)
	addr := geo.Addr(100, 1, 1)
	var lost []simnet.Addr
	cli, kp := f.newPeer(t, addr, func(c *Config) {
		c.OnParentLoss = func(p simnet.Addr, _ []uint8) { lost = append(lost, p) }
	})
	cli.SetTicket(f.mintTicket(kp, addr, "chA", 5*time.Minute))
	f.sched.Go(func() {
		if err := cli.JoinParent("root", nil, 0); err != nil {
			t.Errorf("join: %v", err)
		}
	})
	f.sched.RunUntil(t0.Add(10 * time.Minute))
	if root.Children() != 0 {
		t.Fatal("expired child not evicted")
	}
	if root.Stats().ChildrenEvicted != 1 {
		t.Fatalf("stats = %+v", root.Stats())
	}
	if len(lost) != 1 || lost[0] != "root" {
		t.Fatalf("client not notified of severed peering: %v", lost)
	}
}

func TestRenewalKeepsPeeringAlive(t *testing.T) {
	f := newFixture(t)
	root, _ := f.newPeer(t, "root", nil)
	addr := geo.Addr(100, 1, 1)
	cli, kp := f.newPeer(t, addr, nil)
	cli.SetTicket(f.mintTicket(kp, addr, "chA", 5*time.Minute))
	f.sched.Go(func() {
		if err := cli.JoinParent("root", nil, 0); err != nil {
			t.Errorf("join: %v", err)
			return
		}
		f.sched.Sleep(4 * time.Minute)
		// Present a renewed ticket (as issued by the Channel Manager).
		renewed := f.mintTicket(kp, addr, "chA", 10*time.Minute)
		cli.PresentRenewal(renewed)
	})
	f.sched.RunUntil(t0.Add(8 * time.Minute))
	if root.Children() != 1 {
		t.Fatal("renewed child was evicted")
	}
	f.sched.RunUntil(t0.Add(30 * time.Minute))
	if root.Children() != 0 {
		t.Fatal("child not evicted after renewed ticket finally lapsed")
	}
}

func TestLeaveNotifiesBothSides(t *testing.T) {
	f := newFixture(t)
	root, mid, leaf := buildChain(t, f, nil)
	var leafLost bool
	// Rewire leaf's callback via a new join is complex; instead verify
	// state counts after mid departs.
	_ = leafLost
	mid.Leave()
	f.sched.RunUntil(t0.Add(2 * time.Minute))
	if root.Children() != 0 {
		t.Fatal("root still lists departed child")
	}
	if leaf.parentCount() != 0 {
		t.Fatal("leaf still lists departed parent")
	}
}

func TestContentFromStrangerIgnored(t *testing.T) {
	// Content only flows down established peerings: a stranger pushing
	// packets is ignored (defense against rogue injection, §IV-E).
	f := newFixture(t)
	var got int
	addr := geo.Addr(100, 1, 1)
	cli, _ := f.newPeer(t, addr, func(c *Config) {
		c.OnPacket = func(uint64, []byte) { got++ }
	})
	_ = cli
	stranger := f.net.NewNode("stranger")
	msg := &wire.ContentPush{ChannelID: "chA", Substream: 0, Seq: 1, Packet: []byte{1, 2, 3}}
	stranger.Send(addr, wire.SvcContent, msg.Encode())
	f.sched.RunUntil(t0.Add(time.Minute))
	if got != 0 {
		t.Fatal("stranger's packet was processed")
	}
}

// TestEveryDeliveryFollowsItsDecryptReport pins the hook the rights
// oracle rides: each OnPacket delivery comes right after an
// OnDecrypt(serial, seq, nil) for the same seq, and a packet the parent
// relays that is not sealed under a key in the child's ring — an
// unannounced iteration, or bare payload bytes — counts as
// PacketsUndecrypt and never reaches OnPacket.
func TestEveryDeliveryFollowsItsDecryptReport(t *testing.T) {
	f := newFixture(t)
	type event struct {
		decrypt bool
		serial  keys.Serial
		seq     uint64
		err     error
	}
	var events []event
	root, _, leaf := buildChain(t, f, func(c *Config) {
		c.OnDecrypt = func(serial keys.Serial, seq uint64, err error) {
			events = append(events, event{true, serial, seq, err})
		}
		c.OnPacket = func(seq uint64, _ []byte) { events = append(events, event{seq: seq}) }
	})
	sched, _ := keys.NewSchedule(f.rng)
	ck := sched.Current()
	root.InjectKey(ck)
	f.sched.RunUntil(t0.Add(time.Minute))
	unannounced, _ := sched.Rotate() // never injected: no ring holds it
	seal := func(k keys.ContentKey, payload string) []byte {
		pkt, err := keys.NewPacketSealer(k).Seal(f.rng, []byte(payload), []byte("chA"))
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}
	root.relayFrame(0, 1, seal(ck, "frame-1"), nil)
	root.relayFrame(1, 2, seal(unannounced, "frame-2"), nil)
	root.relayFrame(2, 3, []byte("frame-3 in the clear"), nil)
	root.relayFrame(3, 4, seal(ck, "frame-4"), nil)
	f.sched.RunUntil(t0.Add(2 * time.Minute))

	var delivered []uint64
	for i, e := range events {
		if e.decrypt {
			continue
		}
		delivered = append(delivered, e.seq)
		if i == 0 || !events[i-1].decrypt || events[i-1].seq != e.seq || events[i-1].err != nil || events[i-1].serial != ck.Serial {
			t.Fatalf("delivery of seq %d not preceded by its successful decrypt report: %+v", e.seq, events)
		}
	}
	if len(delivered) != 2 || delivered[0] != 1 || delivered[1] != 4 {
		t.Fatalf("delivered seqs %v, want [1 4]", delivered)
	}
	if st := leaf.Stats(); st.PacketsUndecrypt != 2 || st.PacketsDelivered != 2 {
		t.Fatalf("stats = %+v, want 2 undecryptable and 2 delivered", st)
	}
}

func TestHijackedContentDetected(t *testing.T) {
	// A parent relaying tampered packets trips GCM authentication.
	f := newFixture(t)
	var hijacks int
	root, _, leaf := buildChain(t, f, func(c *Config) {
		c.OnPacket = func(uint64, []byte) {}
		c.OnHijack = func(uint64, error) { hijacks++ }
	})
	sched, _ := keys.NewSchedule(f.rng)
	ck := sched.Current()
	root.InjectKey(ck)
	f.sched.RunUntil(t0.Add(time.Minute))
	pkt, _ := keys.NewPacketSealer(ck).Seal(f.rng, []byte("legit"), []byte("chA"))
	pkt[len(pkt)-1] ^= 1 // rogue content masquerading as legitimate
	root.relayFrame(0, 9, pkt, nil)
	f.sched.RunUntil(t0.Add(2 * time.Minute))
	if hijacks != 1 {
		t.Fatalf("hijacks = %d, want 1", hijacks)
	}
	if leaf.Stats().PacketsUndecrypt != 1 {
		t.Fatalf("stats = %+v", leaf.Stats())
	}
}

func TestMultiParentSubstreamSplit(t *testing.T) {
	// The client draws substreams 0,1 from parent A and 2,3 from parent
	// B; packets on every substream arrive exactly once.
	f := newFixture(t)
	rootA, _ := f.newPeer(t, "rootA", nil)
	rootB, _ := f.newPeer(t, "rootB", nil)
	sched, _ := keys.NewSchedule(f.rng)
	ck := sched.Current()
	rootA.InjectKey(ck)
	rootB.InjectKey(ck)

	addr := geo.Addr(100, 1, 1)
	var seqs []uint64
	cli, kp := f.newPeer(t, addr, func(c *Config) {
		c.OnPacket = func(seq uint64, _ []byte) { seqs = append(seqs, seq) }
	})
	cli.SetTicket(f.mintTicket(kp, addr, "chA", time.Hour))
	f.sched.Go(func() {
		if err := cli.JoinParent("rootA", []uint8{0, 1}, 0); err != nil {
			t.Errorf("joinA: %v", err)
		}
		if err := cli.JoinParent("rootB", []uint8{2, 3}, 0); err != nil {
			t.Errorf("joinB: %v", err)
		}
	})
	f.sched.RunUntil(t0.Add(time.Minute))
	for seq := uint64(0); seq < 8; seq++ {
		sub := uint8(seq % 4)
		pkt, _ := keys.NewPacketSealer(ck).Seal(f.rng, []byte{byte(seq)}, []byte("chA"))
		// Both roots carry the full stream; each child only gets its
		// subscribed substreams.
		rootA.relayFrame(sub, seq, pkt, nil)
		pkt2, _ := keys.NewPacketSealer(ck).Seal(f.rng, []byte{byte(seq)}, []byte("chA"))
		rootB.relayFrame(sub, seq, pkt2, nil)
	}
	f.sched.RunUntil(t0.Add(2 * time.Minute))
	if len(seqs) != 8 {
		t.Fatalf("delivered %d packets (%v), want 8 exactly once each", len(seqs), seqs)
	}
	seen := map[uint64]bool{}
	for _, s := range seqs {
		if seen[s] {
			t.Fatalf("seq %d delivered twice", s)
		}
		seen[s] = true
	}
}

func TestEavesdropperCannotUseKeyPush(t *testing.T) {
	// An eavesdropper receiving the KeyPush bytes cannot recover the
	// content key without the pairwise session key.
	f := newFixture(t)
	root, _ := f.newPeer(t, "root", nil)
	addr := geo.Addr(100, 1, 1)
	cli, kp := f.newPeer(t, addr, nil)
	cli.SetTicket(f.mintTicket(kp, addr, "chA", time.Hour))
	eveAddr := geo.Addr(100, 1, 99)
	eve, _ := f.newPeer(t, eveAddr, nil)
	f.sched.Go(func() {
		if err := cli.JoinParent("root", nil, 0); err != nil {
			t.Errorf("join: %v", err)
		}
	})
	f.sched.RunUntil(t0.Add(time.Minute))
	sched, _ := keys.NewSchedule(f.rng)
	ck, _ := sched.Rotate()
	root.InjectKey(ck)
	f.sched.RunUntil(t0.Add(2 * time.Minute))
	if len(eve.Ring().Snapshot()) != 0 {
		t.Fatal("eavesdropper obtained a content key")
	}
	if len(cli.Ring().Snapshot()) == 0 {
		t.Fatal("legitimate client missing the key")
	}
}

func TestNewPeerValidatesConfig(t *testing.T) {
	f := newFixture(t)
	if _, err := NewPeer(f.net.NewNode("x"), Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// ringKey looks up the key a ring holds for serial s.
func ringKey(r *keys.Ring, s keys.Serial) (cryptoutil.SymKey, bool) {
	for _, k := range r.Snapshot() {
		if k.Serial == s {
			return k.Key, true
		}
	}
	return cryptoutil.SymKey{}, false
}
