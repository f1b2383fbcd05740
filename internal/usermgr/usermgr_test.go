package usermgr

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"p2pdrm/internal/accountmgr"
	"p2pdrm/internal/attr"
	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/policy"
	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/ticket"
	"p2pdrm/internal/wire"
)

var (
	t0        = time.Date(2008, 6, 23, 12, 0, 0, 0, time.UTC)
	testImage = bytes.Repeat([]byte("CLIENT-BINARY-IMAGE-"), 64)
)

type fixture struct {
	sched    *sim.Scheduler
	net      *simnet.Network
	accounts *accountmgr.Manager
	mgr      *Manager
	umKeys   *cryptoutil.KeyPair
	rng      *cryptoutil.SeededReader
}

func newFixture(t *testing.T, mut func(*Config)) *fixture {
	t.Helper()
	s := sim.New(t0, 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: 5 * time.Millisecond}))
	rng := cryptoutil.NewSeededReader(7)
	keys, err := cryptoutil.NewKeyPair(rng)
	if err != nil {
		t.Fatal(err)
	}
	accounts := accountmgr.New()
	cfg := Config{
		Accounts:    accounts,
		Keys:        keys,
		TokenSecret: []byte("um secret"),
		ClientImage: testImage,
		MinVersion:  2,
		RNG:         rng,
	}
	if mut != nil {
		mut(&cfg)
	}
	node := net.NewNode("um.provider")
	mgr, err := New(node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{sched: s, net: net, accounts: accounts, mgr: mgr, umKeys: keys, rng: rng}
}

// loginOpts tweak the simulated client's behaviour for negative tests.
type loginOpts struct {
	password     string
	version      uint32
	image        []byte
	wrongSignKey bool
	target       simnet.Addr
	// sign, when set, makes the LOGIN2 signature over msg for the key
	// pair kp registered in LOGIN1.
	sign func(kp *cryptoutil.KeyPair, msg []byte) []byte
}

// doLogin executes the client side of the login protocol from node.
func (f *fixture) doLogin(node *simnet.Node, email string, o loginOpts) ([]byte, *ticket.UserTicket, error) {
	if o.version == 0 {
		o.version = 2
	}
	if o.image == nil {
		o.image = testImage
	}
	if o.target == "" {
		o.target = "um.provider"
	}
	kp, err := cryptoutil.NewKeyPair(f.rng)
	if err != nil {
		return nil, nil, err
	}
	req1 := &wire.Login1Req{Email: email, ClientKey: kp.Public().Encode(), Version: o.version}
	raw1, err := node.Call(o.target, wire.SvcLogin1, req1.Encode(), 0)
	if err != nil {
		return nil, nil, err
	}
	resp1, err := wire.DecodeLogin1Resp(raw1)
	if err != nil {
		return nil, nil, err
	}
	shp := cryptoutil.HashPassword(o.password, email)
	plain, err := shp.Open(resp1.Sealed, nil)
	if err != nil {
		// Wrong password: client cannot decrypt the challenge. Proceed
		// with garbage (an attacker would) to show the server denies it.
		plain = make([]byte, cryptoutil.NonceSize+16)
	}
	nonce := plain[:cryptoutil.NonceSize]
	params, err := cryptoutil.DecodeChecksumParams(plain[cryptoutil.NonceSize:])
	if err != nil {
		return nil, nil, err
	}
	sum := cryptoutil.Checksum(o.image, params)
	signer := kp
	if o.wrongSignKey {
		signer, _ = cryptoutil.NewKeyPair(f.rng)
	}
	signed := append(append([]byte(nil), nonce...), sum[:]...)
	sig := signer.Sign(signed)
	if o.sign != nil {
		sig = o.sign(kp, signed)
	}
	req2 := &wire.Login2Req{
		Email: email, Token: resp1.Token, Nonce: nonce,
		Checksum: sum[:], Sig: sig,
	}
	raw2, err := node.Call(o.target, wire.SvcLogin2, req2.Encode(), 0)
	if err != nil {
		return nil, nil, err
	}
	resp2, err := wire.DecodeLogin2Resp(raw2)
	if err != nil {
		return nil, nil, err
	}
	ut, err := ticket.NewVerifier(0).VerifyUser(resp2.UserTicket, f.umKeys.Public())
	if err != nil {
		return nil, nil, err
	}
	return resp2.UserTicket, ut, nil
}

func remoteCode(err error) wire.Code {
	var se *wire.ServiceError
	if errors.As(err, &se) {
		return se.Code
	}
	return wire.CodeUnknown
}

func TestLoginHappyPath(t *testing.T) {
	f := newFixture(t, nil)
	_, err := f.accounts.Register("alice@example.com", "pw")
	if err != nil {
		t.Fatal(err)
	}
	cli := f.net.NewNode(geo.Addr(100, 177, 1))
	var ut *ticket.UserTicket
	f.sched.Go(func() {
		var lerr error
		_, ut, lerr = f.doLogin(cli, "alice@example.com", loginOpts{password: "pw"})
		if lerr != nil {
			t.Errorf("login: %v", lerr)
		}
	})
	f.sched.Run()
	if ut == nil {
		t.Fatal("no ticket issued")
	}
	if ut.UserIN == 0 {
		t.Fatal("ticket has zero UserIN")
	}
	if got := ut.NetAddr(); got != string(geo.Addr(100, 177, 1)) {
		t.Fatalf("NetAddr attr = %q", got)
	}
	if a, ok := ut.Attrs.First(attr.NameRegion); !ok || a.Value != "100" {
		t.Fatalf("Region attr = %v %v", a, ok)
	}
	if a, ok := ut.Attrs.First(attr.NameAS); !ok || a.Value != "177" {
		t.Fatalf("AS attr = %v %v", a, ok)
	}
	if a, ok := ut.Attrs.First(attr.NameVersion); !ok || a.Value != "2" {
		t.Fatalf("Version attr = %v %v", a, ok)
	}
	if err := ut.ValidAt(f.sched.Now()); err != nil {
		t.Fatalf("fresh ticket invalid: %v", err)
	}
	st := f.mgr.Stats()
	if st.Login1Served != 1 || st.Login2Served != 1 || st.TicketsIssued != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLoginWrongPassword(t *testing.T) {
	f := newFixture(t, nil)
	_, _ = f.accounts.Register("alice@e", "correct")
	cli := f.net.NewNode(geo.Addr(1, 1, 1))
	var lerr error
	f.sched.Go(func() {
		_, _, lerr = f.doLogin(cli, "alice@e", loginOpts{password: "wrong"})
	})
	f.sched.Run()
	if code := remoteCode(lerr); code != wire.CodeDenied {
		t.Fatalf("err = %v (code %q), want %s", lerr, code, wire.CodeDenied)
	}
}

func TestLoginUnknownAccount(t *testing.T) {
	f := newFixture(t, nil)
	cli := f.net.NewNode(geo.Addr(1, 1, 1))
	var lerr error
	f.sched.Go(func() { _, _, lerr = f.doLogin(cli, "ghost@e", loginOpts{password: "x"}) })
	f.sched.Run()
	if code := remoteCode(lerr); code != wire.CodeNoAccount {
		t.Fatalf("err = %v, want %s", lerr, wire.CodeNoAccount)
	}
}

func TestLoginDisabledAccount(t *testing.T) {
	f := newFixture(t, nil)
	_, _ = f.accounts.Register("a@e", "pw")
	_ = f.accounts.SetDisabled("a@e", true)
	cli := f.net.NewNode(geo.Addr(1, 1, 1))
	var lerr error
	f.sched.Go(func() { _, _, lerr = f.doLogin(cli, "a@e", loginOpts{password: "pw"}) })
	f.sched.Run()
	if code := remoteCode(lerr); code != wire.CodeNoAccount {
		t.Fatalf("err = %v, want %s", lerr, wire.CodeNoAccount)
	}
}

func TestLoginWrongDomain(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.Domain = "eu" })
	_, _ = f.accounts.Register("a@e", "pw")
	_ = f.accounts.SetDomain("a@e", "us")
	cli := f.net.NewNode(geo.Addr(1, 1, 1))
	var lerr error
	f.sched.Go(func() { _, _, lerr = f.doLogin(cli, "a@e", loginOpts{password: "pw"}) })
	f.sched.Run()
	if code := remoteCode(lerr); code != wire.CodeWrongDomain {
		t.Fatalf("err = %v, want %s", lerr, wire.CodeWrongDomain)
	}
}

func TestLoginTamperedClientImage(t *testing.T) {
	f := newFixture(t, nil)
	_, _ = f.accounts.Register("a@e", "pw")
	cli := f.net.NewNode(geo.Addr(1, 1, 1))
	// Flip every byte: whatever window the checksum parameters sample,
	// the attestation must fail.
	tampered := append([]byte(nil), testImage...)
	for i := range tampered {
		tampered[i] ^= 0xFF
	}
	var lerr error
	f.sched.Go(func() {
		_, _, lerr = f.doLogin(cli, "a@e", loginOpts{password: "pw", image: tampered})
	})
	f.sched.Run()
	if code := remoteCode(lerr); code != wire.CodeBadAttestation {
		t.Fatalf("err = %v, want %s", lerr, wire.CodeBadAttestation)
	}
}

func TestLoginVersionTooOld(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.MinVersion = 5 })
	_, _ = f.accounts.Register("a@e", "pw")
	cli := f.net.NewNode(geo.Addr(1, 1, 1))
	var lerr error
	f.sched.Go(func() {
		_, _, lerr = f.doLogin(cli, "a@e", loginOpts{password: "pw", version: 3})
	})
	f.sched.Run()
	if code := remoteCode(lerr); code != wire.CodeVersionTooOld {
		t.Fatalf("err = %v, want %s", lerr, wire.CodeVersionTooOld)
	}
}

func TestLoginWrongClientKeySignature(t *testing.T) {
	// An attacker holding a captured challenge but not the private key
	// matching the LOGIN1 public key cannot finish.
	f := newFixture(t, nil)
	_, _ = f.accounts.Register("a@e", "pw")
	cli := f.net.NewNode(geo.Addr(1, 1, 1))
	var lerr error
	f.sched.Go(func() {
		_, _, lerr = f.doLogin(cli, "a@e", loginOpts{password: "pw", wrongSignKey: true})
	})
	f.sched.Run()
	if code := remoteCode(lerr); code != wire.CodeDenied {
		t.Fatalf("err = %v, want %s", lerr, wire.CodeDenied)
	}
}

// TestForgedLoginSignatureDeniedWithGenuineRecorded: the manager checks
// LOGIN2 signatures through a memo that holds the genuine signature of
// the very challenge, and a forgery still takes the full check and fails.
func TestForgedLoginSignatureDeniedWithGenuineRecorded(t *testing.T) {
	tickets := ticket.NewVerifier(0)
	f := newFixture(t, func(c *Config) { c.Tickets = tickets })
	_, _ = f.accounts.Register("a@e", "pw")
	attacker, _ := cryptoutil.NewKeyPair(f.rng)
	forgeries := []struct {
		name  string
		forge func(kp *cryptoutil.KeyPair, msg []byte) []byte
	}{
		{"genuine signature with a bit flipped", func(kp *cryptoutil.KeyPair, msg []byte) []byte {
			sig := tickets.Crypto().Sign(kp, msg)
			sig[63] ^= 0x01
			return sig
		}},
		{"attacker's recorded signature", func(kp *cryptoutil.KeyPair, msg []byte) []byte {
			tickets.Crypto().Sign(kp, msg)
			return tickets.Crypto().Sign(attacker, msg)
		}},
		{"genuine signature of another challenge", func(kp *cryptoutil.KeyPair, msg []byte) []byte {
			tickets.Crypto().Sign(kp, msg)
			return tickets.Crypto().Sign(kp, append([]byte{^msg[0]}, msg[1:]...))
		}},
	}
	for i, fg := range forgeries {
		cli := f.net.NewNode(geo.Addr(1, 1, i+1))
		var lerr error
		f.sched.Go(func() {
			_, _, lerr = f.doLogin(cli, "a@e", loginOpts{password: "pw", sign: fg.forge})
		})
		f.sched.Run()
		var se *wire.ServiceError
		if !errors.As(lerr, &se) || se.Code != wire.CodeDenied || !strings.Contains(se.Msg, "client signature invalid") {
			t.Errorf("%s: err = %v, want %s client signature invalid", fg.name, lerr, wire.CodeDenied)
		}
	}
	// The memo itself is no obstacle: a genuine signature recorded in it
	// logs in.
	cli := f.net.NewNode(geo.Addr(1, 1, 99))
	var lerr error
	f.sched.Go(func() {
		_, _, lerr = f.doLogin(cli, "a@e", loginOpts{password: "pw", sign: tickets.Crypto().Sign})
	})
	f.sched.Run()
	if lerr != nil {
		t.Fatalf("genuine recorded signature: %v", lerr)
	}
}

func TestLoginChallengeExpires(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.ChallengeLifetime = 10 * time.Second })
	_, _ = f.accounts.Register("a@e", "pw")
	cli := f.net.NewNode(geo.Addr(1, 1, 1))
	var lerr error
	f.sched.Go(func() {
		kp, _ := cryptoutil.NewKeyPair(f.rng)
		req1 := &wire.Login1Req{Email: "a@e", ClientKey: kp.Public().Encode(), Version: 2}
		raw1, err := cli.Call("um.provider", wire.SvcLogin1, req1.Encode(), 0)
		if err != nil {
			lerr = err
			return
		}
		resp1, _ := wire.DecodeLogin1Resp(raw1)
		shp := cryptoutil.HashPassword("pw", "a@e")
		plain, _ := shp.Open(resp1.Sealed, nil)
		nonce := plain[:cryptoutil.NonceSize]
		params, _ := cryptoutil.DecodeChecksumParams(plain[cryptoutil.NonceSize:])
		sum := cryptoutil.Checksum(testImage, params)

		f.sched.Sleep(time.Minute) // let the challenge lapse

		signed := append(append([]byte(nil), nonce...), sum[:]...)
		req2 := &wire.Login2Req{Email: "a@e", Token: resp1.Token, Nonce: nonce, Checksum: sum[:], Sig: kp.Sign(signed)}
		_, lerr = cli.Call("um.provider", wire.SvcLogin2, req2.Encode(), 0)
	})
	f.sched.Run()
	if code := remoteCode(lerr); code != wire.CodeBadToken {
		t.Fatalf("err = %v, want %s", lerr, wire.CodeBadToken)
	}
}

func TestSubscriptionAttributesAndTicketCap(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.TicketLifetime = time.Hour })
	_, _ = f.accounts.Register("a@e", "pw")
	subEnd := t0.Add(20 * time.Minute)
	_ = f.accounts.Subscribe("a@e", "premium", t0.Add(-time.Hour), subEnd)
	_ = f.accounts.Subscribe("a@e", "expired", t0.Add(-2*time.Hour), t0.Add(-time.Hour))
	cli := f.net.NewNode(geo.Addr(1, 1, 1))
	var ut *ticket.UserTicket
	f.sched.Go(func() {
		_, ut, _ = f.doLogin(cli, "a@e", loginOpts{password: "pw"})
	})
	f.sched.Run()
	if ut == nil {
		t.Fatal("no ticket")
	}
	var subs attr.List
	for _, a := range ut.Attrs {
		if a.Name == attr.NameSubscription {
			subs = append(subs, a)
		}
	}
	if len(subs) != 1 || subs[0].Value != "premium" {
		t.Fatalf("subscription attrs = %v (expired one must be dropped)", subs)
	}
	// §IV-B: ticket expiry no later than the soonest attribute etime.
	if !ut.Expiry.Equal(subEnd) {
		t.Fatalf("ticket expiry = %v, want capped to %v", ut.Expiry, subEnd)
	}
}

func TestUTimeStampedFromChannelAttrList(t *testing.T) {
	f := newFixture(t, nil)
	_, _ = f.accounts.Register("a@e", "pw")
	updated := t0.Add(-time.Hour)
	f.mgr.mu.Lock()
	f.mgr.chanAttrs = policy.ChannelAttrList{
		{Name: attr.NameRegion, Value: "100"}: updated,
	}
	f.mgr.mu.Unlock()
	cli := f.net.NewNode(geo.Addr(100, 1, 1))
	var ut *ticket.UserTicket
	f.sched.Go(func() { _, ut, _ = f.doLogin(cli, "a@e", loginOpts{password: "pw"}) })
	f.sched.Run()
	if ut == nil {
		t.Fatal("no ticket")
	}
	a, ok := ut.Attrs.First(attr.NameRegion)
	if !ok || !a.UTime.Equal(updated) {
		t.Fatalf("Region utime = %v, want %v", a.UTime, updated)
	}
}

func TestPolicyFeedHandler(t *testing.T) {
	f := newFixture(t, nil)
	cal := policy.ChannelAttrList{{Name: attr.NameRegion, Value: "7"}: t0}
	pm := f.net.NewNode("pm.provider")
	feed := &wire.Feed{Version: 1, Body: cal.Encode()}
	pm.Send("um.provider", wire.SvcPolicyFeed, feed.Encode())
	f.sched.Run()
	f.mgr.mu.Lock()
	got := f.mgr.chanAttrs.UTimeFor(attr.NameRegion)
	f.mgr.mu.Unlock()
	if !got.Equal(t0) {
		t.Fatalf("feed not applied: utime = %v", got)
	}
}

// TestPolicyFeedStaleNotDecoded: a feed no newer than the last one
// applied is dropped before its body is decoded (it allocates nothing),
// and a fresh feed whose body does not decode leaves the version where
// it was, so the next good feed still applies.
func TestPolicyFeedStaleNotDecoded(t *testing.T) {
	f := newFixture(t, nil)
	body := func(utime time.Time) []byte {
		return policy.ChannelAttrList{{Name: attr.NameRegion, Value: "7"}: utime}.Encode()
	}
	utime := func() time.Time {
		f.mgr.mu.Lock()
		defer f.mgr.mu.Unlock()
		return f.mgr.chanAttrs.UTimeFor(attr.NameRegion)
	}
	f.mgr.handlePolicyFeed("pm.provider", &wire.Feed{Version: 5, Body: body(t0)})
	stale := &wire.Feed{Version: 3, Body: body(t0.Add(-time.Hour))}
	if n := testing.AllocsPerRun(20, func() { f.mgr.handlePolicyFeed("pm.provider", stale) }); n != 0 {
		t.Fatalf("stale feed allocates %.0f objects, want 0 (decoded before its version check?)", n)
	}
	f.mgr.handlePolicyFeed("pm.provider", &wire.Feed{Version: 10, Body: []byte{0xff}})
	if got := utime(); !got.Equal(t0) || f.mgr.feedSeen != 5 {
		t.Fatalf("after a stale and a garbage feed: utime %v, version %d; want %v, 5", got, f.mgr.feedSeen, t0)
	}
	f.mgr.handlePolicyFeed("pm.provider", &wire.Feed{Version: 6, Body: body(t0.Add(time.Hour))})
	if got := utime(); !got.Equal(t0.Add(time.Hour)) || f.mgr.feedSeen != 6 {
		t.Fatalf("version 6 after a garbage version 10: utime %v, version %d", got, f.mgr.feedSeen)
	}
}

func TestFarmStatelessAcrossBackends(t *testing.T) {
	// LOGIN1 served by backend 1, LOGIN2 by backend 2 — the VIP
	// round-robins, and the stateless token makes it work (§V).
	s := sim.New(t0, 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: 5 * time.Millisecond}))
	rng := cryptoutil.NewSeededReader(7)
	keys, _ := cryptoutil.NewKeyPair(rng)
	accounts := accountmgr.New()
	_, _ = accounts.Register("a@e", "pw")
	cfg := Config{
		Accounts: accounts, Keys: keys, TokenSecret: []byte("shared"),
		ClientImage: testImage, RNG: rng,
	}
	b1 := net.NewNode("um-backend-1")
	b2 := net.NewNode("um-backend-2")
	m1, err := New(b1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(b2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.NewVIP("um.provider", b1, b2)
	f := &fixture{sched: s, net: net, accounts: accounts, umKeys: keys, rng: rng}
	cli := net.NewNode(geo.Addr(1, 1, 1))
	var ut *ticket.UserTicket
	var lerr error
	s.Go(func() { _, ut, lerr = f.doLogin(cli, "a@e", loginOpts{password: "pw"}) })
	s.Run()
	if lerr != nil || ut == nil {
		t.Fatalf("cross-backend login failed: %v", lerr)
	}
	s1, s2 := m1.Stats(), m2.Stats()
	if s1.Login1Served != 1 || s2.Login2Served != 1 {
		t.Fatalf("rounds not split across backends: %+v %+v", s1, s2)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	s := sim.New(t0, 1)
	net := simnet.New(s)
	node := net.NewNode("um")
	if _, err := New(node, Config{}); err == nil || !strings.Contains(err.Error(), "required") {
		t.Fatalf("err = %v", err)
	}
}
