package policymgr

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"p2pdrm/internal/attr"
	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/policy"
	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/ticket"
	"p2pdrm/internal/wire"
)

var t0 = time.Date(2008, 6, 23, 12, 0, 0, 0, time.UTC)

type fixture struct {
	sched  *sim.Scheduler
	net    *simnet.Network
	mgr    *Manager
	umKeys *cryptoutil.KeyPair
	rng    *cryptoutil.SeededReader

	// captured feeds
	umFeeds [][]byte
	cmFeeds [][]byte
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	s := sim.New(t0, 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: time.Millisecond}))
	rng := cryptoutil.NewSeededReader(5)
	umKeys, _ := cryptoutil.NewKeyPair(rng)
	f := &fixture{sched: s, net: net, umKeys: umKeys, rng: rng}

	um := svc.NewRuntime(net.NewNode("um.provider"))
	svc.RegisterRaw(um, wire.SvcPolicyFeed, func(_ simnet.Addr, p []byte) ([]byte, error) {
		f.umFeeds = append(f.umFeeds, p)
		return nil, nil
	})
	cm := svc.NewRuntime(net.NewNode("cm.provider"))
	svc.RegisterRaw(cm, wire.SvcChannelFeed, func(_ simnet.Addr, p []byte) ([]byte, error) {
		f.cmFeeds = append(f.cmFeeds, p)
		return nil, nil
	})

	node := net.NewNode("pm.provider")
	mgr, err := New(node, Config{
		UserMgrKey:  umKeys.Public(),
		UserMgrs:    []simnet.Addr{"um.provider"},
		ChannelMgrs: []simnet.Addr{"cm.provider"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.mgr = mgr
	return f
}

func ch(id string) *policy.Channel {
	return &policy.Channel{
		ID:    id,
		Name:  "Channel " + id,
		Attrs: attr.List{{Name: attr.NameRegion, Value: "100"}},
		Rules: []policy.Rule{{
			Priority: 50,
			Conds:    []policy.Cond{{Name: attr.NameRegion, Value: "100"}},
			Effect:   policy.Accept,
		}},
	}
}

func TestAddChannelTouchesUTimesAndPushes(t *testing.T) {
	f := newFixture(t)
	if err := f.mgr.AddChannel(ch("chA")); err != nil {
		t.Fatal(err)
	}
	f.sched.Run()
	got := f.mgr.lineup()
	if len(got) != 1 || got[0].ID != "chA" {
		t.Fatalf("channels = %v", got)
	}
	for _, a := range got[0].Attrs {
		if !a.UTime.Equal(t0) {
			t.Fatalf("utime = %v, want touched to %v", a.UTime, t0)
		}
	}
	if len(f.umFeeds) != 1 || len(f.cmFeeds) != 1 {
		t.Fatalf("feeds: um=%d cm=%d, want 1 each", len(f.umFeeds), len(f.cmFeeds))
	}
	umFeed, err := wire.DecodeFeed(f.umFeeds[0])
	if err != nil || umFeed.Version != 1 {
		t.Fatalf("um feed envelope: %v %+v", err, umFeed)
	}
	al, err := policy.DecodeAttrList(umFeed.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !al.UTimeFor(attr.NameRegion).Equal(t0) {
		t.Fatal("pushed attr list lacks the new utime")
	}
	cmFeed, err := wire.DecodeFeed(f.cmFeeds[0])
	if err != nil {
		t.Fatal(err)
	}
	l, err := policy.NewLists().Decode(cmFeed.Body)
	if err != nil || len(l.Channels) != 1 || l.Channels[0].ID != "chA" {
		t.Fatalf("pushed channel list: %v %+v", err, l)
	}
}

func TestAddDuplicateChannel(t *testing.T) {
	f := newFixture(t)
	_ = f.mgr.AddChannel(ch("chA"))
	if err := f.mgr.AddChannel(ch("chA")); !errors.Is(err, ErrDuplicateChannel) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoveChannelTombstonesUTimes(t *testing.T) {
	f := newFixture(t)
	_ = f.mgr.AddChannel(ch("chA"))
	var removeAt time.Time
	f.sched.Go(func() {
		f.sched.Sleep(time.Hour)
		removeAt = f.sched.Now()
		if err := f.mgr.RemoveChannel("chA"); err != nil {
			t.Errorf("remove: %v", err)
		}
	})
	f.sched.Run()
	if len(f.mgr.lineup()) != 0 {
		t.Fatal("channel not removed")
	}
	// §IV-A: the removed channel's Region attribute has its last-update
	// time made current in the Channel Attribute List.
	f.mgr.mu.Lock()
	al := f.mgr.attrListLocked()
	f.mgr.mu.Unlock()
	if got := al.UTimeFor(attr.NameRegion); !got.Equal(removeAt) {
		t.Fatalf("tombstoned utime = %v, want %v", got, removeAt)
	}
}

func TestRemoveUnknownChannel(t *testing.T) {
	f := newFixture(t)
	if err := f.mgr.RemoveChannel("ghost"); !errors.Is(err, ErrNoChannel) {
		t.Fatalf("err = %v", err)
	}
}

func TestUpdateChannelPushesNewPolicy(t *testing.T) {
	f := newFixture(t)
	_ = f.mgr.AddChannel(ch("chA"))
	err := f.mgr.UpdateChannel("chA", func(c *policy.Channel) error {
		c.Attrs = append(c.Attrs, attr.Attribute{Name: attr.NameSubscription, Value: "101"})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	f.sched.Run()
	if len(f.cmFeeds) != 2 {
		t.Fatalf("cm feeds = %d, want 2 (add + update)", len(f.cmFeeds))
	}
	// Envelope versions must be monotonic regardless of arrival order.
	fd0, _ := wire.DecodeFeed(f.cmFeeds[0])
	fd1, _ := wire.DecodeFeed(f.cmFeeds[1])
	if fd0 == nil || fd1 == nil {
		t.Fatal("feed envelopes unparseable")
	}
	newer := fd1
	if fd0.Version > fd1.Version {
		newer = fd0
	}
	l, err := policy.NewLists().Decode(newer.Body)
	if err != nil || len(l.Channels) == 0 || len(l.Channels[0].Attrs) != 2 {
		t.Fatal("updated channel list missing new attribute")
	}
}

func TestUpdateChannelMutateError(t *testing.T) {
	f := newFixture(t)
	_ = f.mgr.AddChannel(ch("chA"))
	sentinel := errors.New("nope")
	if err := f.mgr.UpdateChannel("chA", func(*policy.Channel) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestSetBlackout(t *testing.T) {
	f := newFixture(t)
	_ = f.mgr.AddChannel(ch("chA"))
	start, end := t0.Add(time.Hour), t0.Add(2*time.Hour)
	if err := f.mgr.SetBlackout("chA", start, end); err != nil {
		t.Fatal(err)
	}
	got := f.mgr.lineup()[0]
	user := attr.List{{Name: attr.NameRegion, Value: "100"}}
	if d := got.EvaluateUser(user, start.Add(time.Minute)); d.Effect != policy.Reject {
		t.Fatalf("not blacked out: %+v", d)
	}
	if d := got.EvaluateUser(user, t0); d.Effect != policy.Accept {
		t.Fatalf("rejected before blackout: %+v", d)
	}
}

func TestChanListFetch(t *testing.T) {
	f := newFixture(t)
	_ = f.mgr.AddChannel(ch("chA"))
	_ = f.mgr.AddChannel(ch("chB"))
	addr := geo.Addr(100, 1, 1)
	cli := f.net.NewNode(addr)
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	ut := &ticket.UserTicket{
		UserIN: 7, ClientKey: kp.Public(),
		Start: t0, Expiry: t0.Add(time.Hour),
		Attrs: attr.List{{Name: attr.NameNetAddr, Value: attr.Value(addr)}},
	}
	blob := ticket.SignUser(ut, f.umKeys)
	var chs []*policy.Channel
	var ferr error
	f.sched.Go(func() {
		req := &wire.ChanListReq{UserTicket: blob, StaleNames: []string{attr.NameRegion}}
		raw, err := cli.Call("pm.provider", wire.SvcChanList, req.Encode(), 0)
		if err != nil {
			ferr = err
			return
		}
		resp, err := wire.DecodeChanListResp(raw)
		if err != nil {
			ferr = err
			return
		}
		var l *policy.Lineup
		if l, ferr = policy.NewLists().Decode(resp.Channels); ferr == nil {
			chs = l.Channels
		}
	})
	f.sched.Run()
	if ferr != nil {
		t.Fatal(ferr)
	}
	if len(chs) != 2 || chs[0].ID != "chA" || chs[1].ID != "chB" {
		t.Fatalf("channels = %v", chs)
	}
}

func TestChanListFetchRejectsBadTicket(t *testing.T) {
	f := newFixture(t)
	addr := geo.Addr(100, 1, 1)
	cli := f.net.NewNode(addr)
	var ferr error
	f.sched.Go(func() {
		req := &wire.ChanListReq{UserTicket: []byte("garbage")}
		_, ferr = cli.Call("pm.provider", wire.SvcChanList, req.Encode(), 0)
	})
	f.sched.Run()
	var se *wire.ServiceError
	if !errors.As(ferr, &se) || se.Code != wire.CodeBadTicket {
		t.Fatalf("err = %v, want %s", ferr, wire.CodeBadTicket)
	}
}

func TestChanListFetchRejectsAddrMismatch(t *testing.T) {
	f := newFixture(t)
	cli := f.net.NewNode(geo.Addr(100, 1, 66))
	kp, _ := cryptoutil.NewKeyPair(f.rng)
	ut := &ticket.UserTicket{
		UserIN: 7, ClientKey: kp.Public(), Start: t0, Expiry: t0.Add(time.Hour),
		Attrs: attr.List{{Name: attr.NameNetAddr, Value: attr.Value(geo.Addr(100, 1, 1))}},
	}
	blob := ticket.SignUser(ut, f.umKeys)
	var ferr error
	f.sched.Go(func() {
		req := &wire.ChanListReq{UserTicket: blob}
		_, ferr = cli.Call("pm.provider", wire.SvcChanList, req.Encode(), 0)
	})
	f.sched.Run()
	var se *wire.ServiceError
	if !errors.As(ferr, &se) || se.Code != wire.CodeAddrMismatch {
		t.Fatalf("err = %v, want %s", ferr, wire.CodeAddrMismatch)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	s := sim.New(t0, 1)
	net := simnet.New(s)
	if _, err := New(net.NewNode("pm"), Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// TestChanListCacheTracksMutations: the encoded Channel List is kept
// between fetches, so every path that changes the lineup — or a channel's
// attributes or rules — must drop it. After each one, what a fetch would
// get equals a fresh encode of Channels(), and a second read is the kept
// blob, not another encode.
func TestChanListCacheTracksMutations(t *testing.T) {
	f := newFixture(t)
	served := func() []byte {
		f.mgr.mu.Lock()
		defer f.mgr.mu.Unlock()
		return f.mgr.chanListLocked()
	}
	check := func(step string) {
		t.Helper()
		got := served()
		if want := policy.AppendChannels(nil, f.mgr.lineup()); !bytes.Equal(got, want) {
			t.Fatalf("after %s: served Channel List differs from a fresh encode", step)
		}
		if len(got) != cap(got) {
			t.Fatalf("after %s: len %d != cap %d", step, len(got), cap(got))
		}
		if again := served(); &again[0] != &got[0] {
			t.Fatalf("after %s: second read re-encoded the list", step)
		}
	}
	check("New")
	for _, id := range []string{"chB", "chA", "chC"} {
		if err := f.mgr.AddChannel(ch(id)); err != nil {
			t.Fatal(err)
		}
		check("AddChannel " + id)
	}
	if err := f.mgr.RemoveChannel("chA"); err != nil {
		t.Fatal(err)
	}
	check("RemoveChannel")
	if err := f.mgr.UpdateChannel("chB", func(c *policy.Channel) error {
		c.Name = "renamed"
		c.Rules[0].Priority = 7
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	check("UpdateChannel")
	boom := errors.New("boom")
	if err := f.mgr.UpdateChannel("chB", func(c *policy.Channel) error {
		c.Name = "half-written"
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failing mutate: err = %v", err)
	}
	check("UpdateChannel with a failing mutate")
	if err := f.mgr.SetBlackout("chC", t0.Add(time.Hour), t0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	check("SetBlackout")
	f.sched.Run()
}
