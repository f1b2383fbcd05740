package channelmgr

import (
	"errors"
	"testing"
	"time"

	"p2pdrm/internal/attr"
	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/policy"
	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/ticket"
	"p2pdrm/internal/wire"
)

var t0 = time.Date(2008, 6, 23, 18, 0, 0, 0, time.UTC)

type fixture struct {
	sched  *sim.Scheduler
	net    *simnet.Network
	mgr    *Manager
	umKeys *cryptoutil.KeyPair
	cmKeys *cryptoutil.KeyPair
	rng    *cryptoutil.SeededReader
}

// freeChannel is viewable from region 100 only.
func freeChannel(id string) *policy.Channel {
	return &policy.Channel{
		ID:    id,
		Name:  "Free " + id,
		Attrs: attr.List{{Name: attr.NameRegion, Value: "100"}},
		Rules: []policy.Rule{{
			Priority: 50,
			Conds:    []policy.Cond{{Name: attr.NameRegion, Value: "100"}},
			Effect:   policy.Accept,
		}},
	}
}

func newFixture(t *testing.T, mut func(*Config)) *fixture {
	t.Helper()
	s := sim.New(t0, 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: 5 * time.Millisecond}))
	rng := cryptoutil.NewSeededReader(3)
	umKeys, _ := cryptoutil.NewKeyPair(rng)
	cmKeys, _ := cryptoutil.NewKeyPair(rng)
	cfg := Config{
		Keys:        cmKeys,
		UserMgrKey:  umKeys.Public(),
		TokenSecret: []byte("cm secret"),
		RNG:         rng,
	}
	if mut != nil {
		mut(&cfg)
	}
	node := net.NewNode("cm.provider")
	mgr, err := New(node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr.setChannels([]*policy.Channel{freeChannel("chA"), freeChannel("chB")})
	mgr.Directory().RegisterPermanent("chA", "root.chA")
	return &fixture{sched: s, net: net, mgr: mgr, umKeys: umKeys, cmKeys: cmKeys, rng: rng}
}

// regionOf returns addr's region ("" for an address geo cannot place).
func regionOf(addr simnet.Addr) string {
	info, _ := geo.Lookup(addr)
	return info.Region
}

// mintUserTicket forges a legitimate ticket as the User Manager would.
func (f *fixture) mintUserTicket(kp *cryptoutil.KeyPair, userIN uint64, addr simnet.Addr, lifetime time.Duration) []byte {
	region := regionOf(addr)
	ut := &ticket.UserTicket{
		UserIN:    userIN,
		ClientKey: kp.Public(),
		Start:     f.sched.Now(),
		Expiry:    f.sched.Now().Add(lifetime),
		Attrs: attr.List{
			{Name: attr.NameNetAddr, Value: attr.Value(addr)},
			{Name: attr.NameRegion, Value: attr.Value(region)},
		},
	}
	return ticket.SignUser(ut, f.umKeys)
}

// doSwitch runs the client side of SWITCH1+SWITCH2.
func doSwitch(node *simnet.Node, target simnet.Addr, kp *cryptoutil.KeyPair, utBlob []byte, channelID string, expiring []byte) (*wire.SwitchResp, error) {
	req := &wire.SwitchReq{UserTicket: utBlob, ChannelID: channelID, ExpiringTicket: expiring}
	raw, err := node.Call(target, wire.SvcSwitch1, req.Encode(), 0)
	if err != nil {
		return nil, err
	}
	chal, err := wire.DecodeSwitchChallenge(raw)
	if err != nil {
		return nil, err
	}
	fin := &wire.SwitchFinish{
		UserTicket: utBlob, ChannelID: channelID, ExpiringTicket: expiring,
		Token: chal.Token, Nonce: chal.Nonce, Sig: kp.Sign(chal.Nonce),
	}
	raw2, err := node.Call(target, wire.SvcSwitch2, fin.Encode(), 0)
	if err != nil {
		return nil, err
	}
	return wire.DecodeSwitchResp(raw2)
}

func remoteCode(err error) wire.Code {
	var se *wire.ServiceError
	if errors.As(err, &se) {
		return se.Code
	}
	return wire.CodeUnknown
}

func TestSwitchHappyPath(t *testing.T) {
	f := newFixture(t, nil)
	addr := geo.Addr(100, 1, 1)
	cli := f.net.NewNode(addr)
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	ut := f.mintUserTicket(kp, 7, addr, time.Hour)
	var resp *wire.SwitchResp
	var serr error
	f.sched.Go(func() { resp, serr = doSwitch(cli, "cm.provider", kp, ut, "chA", nil) })
	f.sched.Run()
	if serr != nil {
		t.Fatal(serr)
	}
	ct, err := ticket.VerifyChannel(resp.ChannelTicket, f.cmKeys.Public())
	if err != nil {
		t.Fatal(err)
	}
	if ct.UserIN != 7 || ct.ChannelID != "chA" || ct.NetAddr != string(addr) || ct.Renewal {
		t.Fatalf("ticket = %+v", ct)
	}
	if !ct.Expiry.Equal(ct.Start.Add(5 * time.Minute)) {
		t.Fatalf("expiry = %v, want start+5m default", ct.Expiry)
	}
	// The root peer must be listed.
	found := false
	for _, p := range resp.Peers {
		if p == "root.chA" {
			found = true
		}
	}
	if !found {
		t.Fatalf("peer list %v missing channel root", resp.Peers)
	}
	// Viewing activity logged (§IV-C purpose 3).
	entry, ok := f.mgr.cfg.Log.last(7, "chA")
	if !ok || entry.NetAddr != addr {
		t.Fatalf("view log entry = %+v %v", entry, ok)
	}
	st := f.mgr.Stats()
	if st.TicketsIssued != 1 || st.Renewals != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestChannelTicketCappedByUserTicket(t *testing.T) {
	f := newFixture(t, nil)
	addr := geo.Addr(100, 1, 1)
	cli := f.net.NewNode(addr)
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	ut := f.mintUserTicket(kp, 7, addr, 2*time.Minute) // shorter than CM's 5m
	var resp *wire.SwitchResp
	f.sched.Go(func() { resp, _ = doSwitch(cli, "cm.provider", kp, ut, "chA", nil) })
	f.sched.Run()
	ct, _ := ticket.VerifyChannel(resp.ChannelTicket, f.cmKeys.Public())
	parsed, _ := ticket.VerifyUser(ut, f.umKeys.Public())
	if ct.Expiry.After(parsed.Expiry) {
		t.Fatalf("channel ticket (%v) outlives user ticket (%v), violating §IV-C", ct.Expiry, parsed.Expiry)
	}
}

// TestChannelTicketCappedByGrantWindow pins the grant-window cap: a
// viewer whose qualifying attribute (a PPV purchase) expires before the
// Channel Manager's default ticket lifetime must get a ticket capped at
// the purchase's end, not one outliving the right that earned it. The
// round-2 policy check alone cannot catch this — the decision is made
// while the attribute is still valid.
func TestChannelTicketCappedByGrantWindow(t *testing.T) {
	f := newFixture(t, nil)
	ppv := &policy.Channel{
		ID:   "ppv",
		Name: "PPV event",
		Attrs: attr.List{
			{Name: attr.NameRegion, Value: "100"},
			{Name: attr.NameSubscription, Value: "evt"},
		},
		Rules: []policy.Rule{{
			Priority: 50,
			Conds: []policy.Cond{
				{Name: attr.NameRegion, Value: "100"},
				{Name: attr.NameSubscription, Value: "evt"},
			},
			Effect: policy.Accept,
		}},
	}
	f.mgr.setChannels([]*policy.Channel{ppv})
	addr := geo.Addr(100, 1, 1)
	cli := f.net.NewNode(addr)
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	purchaseEnd := f.sched.Now().Add(90 * time.Second) // < the CM's 5m default
	ut := &ticket.UserTicket{
		UserIN:    7,
		ClientKey: kp.Public(),
		Start:     f.sched.Now(),
		Expiry:    f.sched.Now().Add(time.Hour),
		Attrs: attr.List{
			{Name: attr.NameNetAddr, Value: attr.Value(addr)},
			{Name: attr.NameRegion, Value: attr.Value(regionOf(addr))},
			{Name: attr.NameSubscription, Value: "evt", ETime: purchaseEnd},
		},
	}
	blob := ticket.SignUser(ut, f.umKeys)
	var resp *wire.SwitchResp
	var serr error
	f.sched.Go(func() { resp, serr = doSwitch(cli, "cm.provider", kp, blob, "ppv", nil) })
	f.sched.Run()
	if serr != nil {
		t.Fatal(serr)
	}
	ct, err := ticket.VerifyChannel(resp.ChannelTicket, f.cmKeys.Public())
	if err != nil {
		t.Fatal(err)
	}
	if !ct.Expiry.Equal(purchaseEnd) {
		t.Fatalf("ticket expiry = %v, want capped at purchase end %v", ct.Expiry, purchaseEnd)
	}
}

func TestPolicyRejectsWrongRegion(t *testing.T) {
	f := newFixture(t, nil)
	addr := geo.Addr(200, 1, 1) // channel requires region 100
	cli := f.net.NewNode(addr)
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	ut := f.mintUserTicket(kp, 7, addr, time.Hour)
	var serr error
	f.sched.Go(func() { _, serr = doSwitch(cli, "cm.provider", kp, ut, "chA", nil) })
	f.sched.Run()
	if code := remoteCode(serr); code != wire.CodeDenied {
		t.Fatalf("err = %v, want %s", serr, wire.CodeDenied)
	}
	if f.mgr.Stats().Denials == 0 {
		t.Fatal("denial not counted")
	}
}

func TestExpiredUserTicketRejected(t *testing.T) {
	f := newFixture(t, nil)
	addr := geo.Addr(100, 1, 1)
	cli := f.net.NewNode(addr)
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	ut := f.mintUserTicket(kp, 7, addr, time.Minute)
	var serr error
	f.sched.Go(func() {
		f.sched.Sleep(2 * time.Minute) // let it lapse
		_, serr = doSwitch(cli, "cm.provider", kp, ut, "chA", nil)
	})
	f.sched.Run()
	if code := remoteCode(serr); code != wire.CodeExpiredTicket {
		t.Fatalf("err = %v, want %s", serr, wire.CodeExpiredTicket)
	}
}

func TestNetAddrMismatchRejected(t *testing.T) {
	// A ticket stolen by a peer at a different address is unusable.
	f := newFixture(t, nil)
	victim := geo.Addr(100, 1, 1)
	attacker := f.net.NewNode(geo.Addr(100, 1, 66))
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	ut := f.mintUserTicket(kp, 7, victim, time.Hour)
	var serr error
	f.sched.Go(func() { _, serr = doSwitch(attacker, "cm.provider", kp, ut, "chA", nil) })
	f.sched.Run()
	if code := remoteCode(serr); code != wire.CodeAddrMismatch {
		t.Fatalf("err = %v, want %s", serr, wire.CodeAddrMismatch)
	}
}

func TestStolenTicketWithoutPrivateKeyRejected(t *testing.T) {
	// §IV-G1: an attacker holding the User Ticket but not the private key
	// cannot answer the nonce challenge (here: same NetAddr, e.g. behind
	// the victim's NAT).
	f := newFixture(t, nil)
	addr := geo.Addr(100, 1, 1)
	cli := f.net.NewNode(addr)
	victimKP, _ := cryptoutil.NewKeyPair(f.rng)
	attackerKP, _ := cryptoutil.NewKeyPair(f.rng)
	ut := f.mintUserTicket(victimKP, 7, addr, time.Hour)
	var serr error
	f.sched.Go(func() { _, serr = doSwitch(cli, "cm.provider", attackerKP, ut, "chA", nil) })
	f.sched.Run()
	if code := remoteCode(serr); code != wire.CodeDenied {
		t.Fatalf("err = %v, want %s", serr, wire.CodeDenied)
	}
}

func TestUnknownChannelRejected(t *testing.T) {
	f := newFixture(t, nil)
	addr := geo.Addr(100, 1, 1)
	cli := f.net.NewNode(addr)
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	ut := f.mintUserTicket(kp, 7, addr, time.Hour)
	var serr error
	f.sched.Go(func() { _, serr = doSwitch(cli, "cm.provider", kp, ut, "ghost", nil) })
	f.sched.Run()
	if code := remoteCode(serr); code != wire.CodeNoChannel {
		t.Fatalf("err = %v, want %s", serr, wire.CodeNoChannel)
	}
}

func TestPartitionFiltering(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.Partition = "p1" })
	chP1 := freeChannel("chP1")
	chP1.Partition = "p1"
	chP2 := freeChannel("chP2")
	chP2.Partition = "p2"
	f.mgr.setChannels([]*policy.Channel{chP1, chP2})
	addr := geo.Addr(100, 1, 1)
	cli := f.net.NewNode(addr)
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	ut := f.mintUserTicket(kp, 7, addr, time.Hour)
	var err1, err2 error
	f.sched.Go(func() {
		_, err1 = doSwitch(cli, "cm.provider", kp, ut, "chP1", nil)
		_, err2 = doSwitch(cli, "cm.provider", kp, ut, "chP2", nil)
	})
	f.sched.Run()
	if err1 != nil {
		t.Fatalf("own-partition channel failed: %v", err1)
	}
	if code := remoteCode(err2); code != wire.CodeNoChannel {
		t.Fatalf("foreign-partition err = %v, want %s", err2, wire.CodeNoChannel)
	}
}

func TestBlackoutEnforced(t *testing.T) {
	f := newFixture(t, nil)
	ch := freeChannel("chA")
	boAttr, boRule := policy.Blackout(t0.Add(time.Hour), t0.Add(2*time.Hour), 100, t0)
	ch.Attrs = append(ch.Attrs, boAttr)
	ch.Rules = append(ch.Rules, boRule)
	f.mgr.setChannels([]*policy.Channel{ch})
	addr := geo.Addr(100, 1, 1)
	cli := f.net.NewNode(addr)
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	var before, during error
	f.sched.Go(func() {
		ut := f.mintUserTicket(kp, 7, addr, 30*time.Minute)
		_, before = doSwitch(cli, "cm.provider", kp, ut, "chA", nil)
		f.sched.Sleep(90 * time.Minute) // into the blackout
		ut2 := f.mintUserTicket(kp, 7, addr, 30*time.Minute)
		_, during = doSwitch(cli, "cm.provider", kp, ut2, "chA", nil)
	})
	f.sched.Run()
	if before != nil {
		t.Fatalf("pre-blackout access failed: %v", before)
	}
	if code := remoteCode(during); code != wire.CodeDenied {
		t.Fatalf("during blackout err = %v, want %s", during, wire.CodeDenied)
	}
}

func TestRenewalHappyPath(t *testing.T) {
	f := newFixture(t, nil)
	addr := geo.Addr(100, 1, 1)
	cli := f.net.NewNode(addr)
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	var renewed *ticket.ChannelTicket
	var serr error
	f.sched.Go(func() {
		ut := f.mintUserTicket(kp, 7, addr, time.Hour)
		resp, err := doSwitch(cli, "cm.provider", kp, ut, "chA", nil)
		if err != nil {
			serr = err
			return
		}
		f.sched.Sleep(5*time.Minute - 30*time.Second) // near expiry
		resp2, err := doSwitch(cli, "cm.provider", kp, ut, "", resp.ChannelTicket)
		if err != nil {
			serr = err
			return
		}
		renewed, serr = ticket.VerifyChannel(resp2.ChannelTicket, f.cmKeys.Public())
	})
	f.sched.Run()
	if serr != nil {
		t.Fatal(serr)
	}
	if !renewed.Renewal {
		t.Fatal("renewal bit not set (§IV-D)")
	}
	if renewed.ChannelID != "chA" || renewed.UserIN != 7 {
		t.Fatalf("renewed = %+v", renewed)
	}
	if !renewed.Expiry.After(t0.Add(5 * time.Minute)) {
		t.Fatalf("renewal did not extend expiry: %v", renewed.Expiry)
	}
	if f.mgr.Stats().Renewals != 1 {
		t.Fatalf("stats = %+v", f.mgr.Stats())
	}
}

// TestRenewalForgedExpiringTicketRejected: the backend remembers the
// tickets it signs so its own renewals skip a signature check — which
// must not let anything but those exact bytes through. A bit-flipped copy
// of the issued ticket and the same ticket re-signed by a rogue key are
// refused as bad tickets at SWITCH1, before and after the genuine
// renewal; the genuine one renews.
func TestRenewalForgedExpiringTicketRejected(t *testing.T) {
	f := newFixture(t, nil)
	addr := geo.Addr(100, 1, 1)
	cli := f.net.NewNode(addr)
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	rogue, _ := cryptoutil.NewKeyPair(f.rng)
	var codes []wire.Code
	var serr error
	f.sched.Go(func() {
		ut := f.mintUserTicket(kp, 7, addr, time.Hour)
		resp, err := doSwitch(cli, "cm.provider", kp, ut, "chA", nil)
		if err != nil {
			serr = err
			return
		}
		issued, err := ticket.VerifyChannel(resp.ChannelTicket, f.cmKeys.Public())
		if err != nil {
			serr = err
			return
		}
		flipped := append([]byte(nil), resp.ChannelTicket...)
		flipped[len(flipped)/2] ^= 1
		forged := ticket.SignChannel(issued, rogue)
		f.sched.Sleep(5*time.Minute - 30*time.Second)
		attempt := func(expiring []byte) {
			_, err := doSwitch(cli, "cm.provider", kp, ut, "", expiring)
			codes = append(codes, remoteCode(err))
		}
		attempt(flipped)
		attempt(forged)
		if _, serr = doSwitch(cli, "cm.provider", kp, ut, "", resp.ChannelTicket); serr != nil {
			return
		}
		attempt(flipped)
		attempt(forged)
	})
	f.sched.Run()
	if serr != nil {
		t.Fatal(serr)
	}
	for i, c := range codes {
		if c != wire.CodeBadTicket {
			t.Fatalf("forged attempt %d: code = %v, want bad_ticket (all: %v)", i, c, codes)
		}
	}
	if len(codes) != 4 || f.mgr.Stats().Renewals != 1 {
		t.Fatalf("attempts = %v, stats = %+v; want 4 refusals and 1 renewal", codes, f.mgr.Stats())
	}
}

func TestRenewalOutsideWindowRejected(t *testing.T) {
	f := newFixture(t, nil)
	addr := geo.Addr(100, 1, 1)
	cli := f.net.NewNode(addr)
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	var serr error
	f.sched.Go(func() {
		ut := f.mintUserTicket(kp, 7, addr, time.Hour)
		resp, err := doSwitch(cli, "cm.provider", kp, ut, "chA", nil)
		if err != nil {
			serr = err
			return
		}
		// Way too early: 4 minutes before expiry with a 1-minute window.
		f.sched.Sleep(time.Minute)
		_, serr = doSwitch(cli, "cm.provider", kp, ut, "", resp.ChannelTicket)
	})
	f.sched.Run()
	if code := remoteCode(serr); code != wire.CodeRenewalWindow {
		t.Fatalf("err = %v, want %s", serr, wire.CodeRenewalWindow)
	}
}

func TestRenewalDeniedAfterMove(t *testing.T) {
	// §IV-D: the user joins from computer B; computer A's renewal must be
	// refused because the latest log entry now shows B's NetAddr.
	f := newFixture(t, nil)
	addrA := geo.Addr(100, 1, 1)
	addrB := geo.Addr(100, 1, 2)
	cliA := f.net.NewNode(addrA)
	cliB := f.net.NewNode(addrB)
	kpA, _ := cryptoutil.NewKeyPair(f.rng)
	kpB, _ := cryptoutil.NewKeyPair(f.rng)
	var renewErr error
	f.sched.Go(func() {
		utA := f.mintUserTicket(kpA, 7, addrA, time.Hour)
		respA, err := doSwitch(cliA, "cm.provider", kpA, utA, "chA", nil)
		if err != nil {
			renewErr = err
			return
		}
		// Same account (UserIN 7) joins from computer B.
		utB := f.mintUserTicket(kpB, 7, addrB, time.Hour)
		if _, err := doSwitch(cliB, "cm.provider", kpB, utB, "chA", nil); err != nil {
			renewErr = err
			return
		}
		f.sched.Sleep(5*time.Minute - 30*time.Second)
		_, renewErr = doSwitch(cliA, "cm.provider", kpA, utA, "", respA.ChannelTicket)
	})
	f.sched.Run()
	if code := remoteCode(renewErr); code != wire.CodeRenewalDenied {
		t.Fatalf("err = %v, want %s", renewErr, wire.CodeRenewalDenied)
	}
}

func TestTokenTicketSwapRejected(t *testing.T) {
	// Swapping in a different user ticket between rounds must break the
	// token's hash binding.
	f := newFixture(t, nil)
	addr := geo.Addr(100, 1, 1)
	cli := f.net.NewNode(addr)
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	var serr error
	f.sched.Go(func() {
		ut1 := f.mintUserTicket(kp, 7, addr, time.Hour)
		ut2 := f.mintUserTicket(kp, 8, addr, time.Hour)
		req := &wire.SwitchReq{UserTicket: ut1, ChannelID: "chA"}
		raw, err := cli.Call("cm.provider", wire.SvcSwitch1, req.Encode(), 0)
		if err != nil {
			serr = err
			return
		}
		chal, _ := wire.DecodeSwitchChallenge(raw)
		fin := &wire.SwitchFinish{
			UserTicket: ut2, ChannelID: "chA",
			Token: chal.Token, Nonce: chal.Nonce, Sig: kp.Sign(chal.Nonce),
		}
		_, serr = cli.Call("cm.provider", wire.SvcSwitch2, fin.Encode(), 0)
	})
	f.sched.Run()
	if code := remoteCode(serr); code != wire.CodeBadToken {
		t.Fatalf("err = %v, want %s", serr, wire.CodeBadToken)
	}
}

func TestFarmSharedLogAndStatelessRounds(t *testing.T) {
	s := sim.New(t0, 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: 5 * time.Millisecond}))
	rng := cryptoutil.NewSeededReader(3)
	umKeys, _ := cryptoutil.NewKeyPair(rng)
	cmKeys, _ := cryptoutil.NewKeyPair(rng)
	sharedLog := NewViewLog(0)
	sharedDir := NewDirectory(1)
	cfg := Config{
		Keys: cmKeys, UserMgrKey: umKeys.Public(), TokenSecret: []byte("shared"),
		Log: sharedLog, Dir: sharedDir, RNG: rng,
	}
	b1 := net.NewNode("cm-backend-1")
	b2 := net.NewNode("cm-backend-2")
	m1, _ := New(b1, cfg)
	m2, _ := New(b2, cfg)
	m1.setChannels([]*policy.Channel{freeChannel("chA")})
	m2.setChannels([]*policy.Channel{freeChannel("chA")})
	net.NewVIP("cm.provider", b1, b2)

	f := &fixture{sched: s, net: net, umKeys: umKeys, cmKeys: cmKeys, rng: rng}
	addr := geo.Addr(100, 1, 1)
	cli := net.NewNode(addr)
	kp, _ := cryptoutil.NewKeyPair(rng)
	var serr error
	s.Go(func() {
		ut := f.mintUserTicket(kp, 7, addr, time.Hour)
		_, serr = doSwitch(cli, "cm.provider", kp, ut, "chA", nil)
	})
	s.Run()
	if serr != nil {
		t.Fatalf("cross-backend switch failed: %v", serr)
	}
	s1, s2 := m1.Stats(), m2.Stats()
	if s1.Switch1Served != 1 || s2.Switch2Served != 1 {
		t.Fatalf("rounds not split: %+v %+v", s1, s2)
	}
	if _, ok := sharedLog.last(7, "chA"); !ok {
		t.Fatal("shared view log missing the entry")
	}
}

func TestChannelFeedHandler(t *testing.T) {
	f := newFixture(t, nil)
	pm := f.net.NewNode("pm.provider")
	chs := []*policy.Channel{freeChannel("chNew")}
	feed := &wire.Feed{Version: 1, Body: policy.AppendChannels(nil, chs)}
	pm.Send("cm.provider", wire.SvcChannelFeed, feed.Encode())
	f.sched.Run()
	if _, ok := f.mgr.channel("chNew"); !ok {
		t.Fatal("channel feed not applied")
	}
	if _, ok := f.mgr.channel("chA"); ok {
		t.Fatal("feed should replace the channel list")
	}
}

func TestNewValidatesConfig(t *testing.T) {
	s := sim.New(t0, 1)
	net := simnet.New(s)
	if _, err := New(net.NewNode("x"), Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}
