package p2p

import (
	"testing"
	"time"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/keys"
	"p2pdrm/internal/ticket"
	"p2pdrm/internal/wire"
)

func TestRenewalFromStrangerIgnored(t *testing.T) {
	// Only an existing child's peering can be extended: a stranger
	// presenting a valid renewal ticket gains nothing.
	f := newFixture(t)
	root, _ := f.newPeer(t, "root", nil)
	strangerAddr := geo.Addr(100, 1, 77)
	strangerNode := f.net.NewNode(strangerAddr)
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	blob := f.mintTicket(kp, strangerAddr, "chA", time.Hour)
	msg := &wire.RenewalPresent{ChannelTicket: blob}
	strangerNode.Send("root", wire.SvcRenewal, msg.Encode())
	f.sched.RunUntil(t0.Add(time.Minute))
	if root.Children() != 0 {
		t.Fatal("stranger's renewal created a child")
	}
}

func TestRenewalWithInvalidTicketIgnored(t *testing.T) {
	// A child presenting a forged renewal does not extend its peering.
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
		// Forged renewal: self-signed by a rogue key.
		rogue, _ := cryptoutil.NewKeyPair(cryptoutil.NewSeededReader(5))
		forged := ticket.SignChannel(&ticket.ChannelTicket{
			UserIN: 7, ChannelID: "chA", NetAddr: string(addr),
			ClientKey: kp.Public(), Start: f.sched.Now(),
			Expiry: f.sched.Now().Add(time.Hour), Renewal: true,
		}, rogue)
		cli.PresentRenewal(forged)
	})
	f.sched.RunUntil(t0.Add(10 * time.Minute))
	if root.Children() != 0 {
		t.Fatal("forged renewal kept the peering alive past expiry")
	}
}

func TestKeyPushWrongChannelIgnored(t *testing.T) {
	f := newFixture(t)
	root, _ := f.newPeer(t, "root", nil)
	addr := geo.Addr(100, 1, 1)
	cli, kp := f.newPeer(t, addr, nil)
	cli.SetTicket(f.mintTicket(kp, addr, "chA", time.Hour))
	f.sched.Go(func() {
		if err := cli.JoinParent("root", nil, 0); err != nil {
			t.Errorf("join: %v", err)
		}
	})
	f.sched.RunUntil(t0.Add(time.Minute))
	// The parent pushes a key labeled for a DIFFERENT channel: ignored.
	sched, _ := keys.NewSchedule(f.rng)
	ck := sched.Current()
	// Build the push by hand as the root peer would, but mislabel it.
	root.mu.Lock()
	var session *cryptoutil.SealKey
	for _, h := range root.children {
		session = root.arena.at(h).session
	}
	root.mu.Unlock()
	sealed, _ := session.Seal(f.rng, ck.Encode(), nil)
	msg := append(wire.AppendKeyPushHeader(nil, "chOTHER", len(sealed)), sealed...)
	root.Node().Send(addr, wire.SvcKeyPush, msg)
	f.sched.RunUntil(t0.Add(2 * time.Minute))
	if len(cli.Ring().Snapshot()) != 0 {
		t.Fatal("mislabeled key push was accepted")
	}
}

func TestLeaveIsIdempotent(t *testing.T) {
	f := newFixture(t)
	_, mid, _ := buildChain(t, f, nil)
	mid.Leave()
	mid.Leave() // second leave must not panic or resurrect state
	f.sched.RunUntil(t0.Add(time.Minute))
	if mid.parentCount() != 0 || mid.Children() != 0 {
		t.Fatal("state after double leave")
	}
}

func TestClosedPeerRejectsJoins(t *testing.T) {
	f := newFixture(t)
	leaving, _ := f.newPeer(t, "root", nil)
	leaving.Leave()
	addr := geo.Addr(100, 1, 1)
	cli, kp := f.newPeer(t, addr, nil)
	cli.SetTicket(f.mintTicket(kp, addr, "chA", time.Hour))
	var jerr error
	f.sched.Go(func() { jerr = cli.JoinParent("root", nil, 0) })
	f.sched.RunUntil(t0.Add(time.Minute))
	if jerr == nil {
		t.Fatal("departing peer accepted a join")
	}
}
