package svc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

var t0 = time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)

func newNet() (*sim.Scheduler, *simnet.Network) {
	s := sim.New(t0, 1)
	return s, simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: time.Millisecond}))
}

// echoFeed is the trivial typed endpoint used throughout: it answers a
// wire.Feed with the same feed, one version up.
func echoFeed(_ simnet.Addr, f *wire.Feed) (*wire.Feed, error) {
	return &wire.Feed{Version: f.Version + 1, Body: f.Body}, nil
}

func TestTypedRoundTrip(t *testing.T) {
	s, net := newNet()
	rt := NewRuntime(net.NewNode("server"))
	Register(rt, "feed", wire.DecodeFeed, echoFeed)
	cli := net.NewNode("client")
	var resp *wire.Feed
	var cerr error
	s.Go(func() {
		resp, cerr = Invoke(Plain{Node: cli}, "server", "feed",
			&wire.Feed{Version: 6, Body: []byte("b")}, wire.DecodeFeed)
	})
	s.Run()
	if cerr != nil {
		t.Fatal(cerr)
	}
	if resp.Version != 7 || !bytes.Equal(resp.Body, []byte("b")) {
		t.Fatalf("resp = %+v", resp)
	}
	m := rt.Metrics("feed")
	if m.Requests != 1 || m.Errors != 0 || m.DecodeErrors != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestMalformedRequestAnsweredBeforeHandler(t *testing.T) {
	s, net := newNet()
	rt := NewRuntime(net.NewNode("server"))
	ran := false
	Register(rt, "feed", wire.DecodeFeed, func(from simnet.Addr, f *wire.Feed) (*wire.Feed, error) {
		ran = true
		return f, nil
	})
	cli := net.NewNode("client")
	var cerr error
	s.Go(func() {
		_, cerr = cli.Call("server", "feed", []byte{0xFF}, 0)
	})
	s.Run()
	var se *wire.ServiceError
	if !errors.As(cerr, &se) || se.Code != wire.CodeMalformed {
		t.Fatalf("err = %v, want %s", cerr, wire.CodeMalformed)
	}
	if ran {
		t.Fatal("handler ran on an undecodable frame")
	}
	m := rt.Metrics("feed")
	if m.Requests != 1 || m.Errors != 1 || m.DecodeErrors != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestHandlerErrorSurfacesTyped(t *testing.T) {
	s, net := newNet()
	rt := NewRuntime(net.NewNode("server"))
	Register(rt, "feed", wire.DecodeFeed, func(simnet.Addr, *wire.Feed) (*wire.Feed, error) {
		return nil, wire.Errf(wire.CodeDenied, "nope")
	})
	cli := net.NewNode("client")
	var cerr error
	s.Go(func() {
		_, cerr = Invoke(Plain{Node: cli}, "server", "feed",
			&wire.Feed{Version: 1}, wire.DecodeFeed)
	})
	s.Run()
	var se *wire.ServiceError
	if !errors.As(cerr, &se) || se.Code != wire.CodeDenied {
		t.Fatalf("err = %v", cerr)
	}
	if m := rt.Metrics("feed"); m.Errors != 1 || m.DecodeErrors != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestOneWayCountsAndDropsMalformed(t *testing.T) {
	s, net := newNet()
	rt := NewRuntime(net.NewNode("server"))
	var got []*wire.Feed
	RegisterOneWay(rt, "push", wire.DecodeFeed, func(_ simnet.Addr, f *wire.Feed) {
		got = append(got, f)
	})
	cli := net.NewNode("client")
	cli.Send("server", "push", (&wire.Feed{Version: 3}).Encode())
	cli.Send("server", "push", []byte{0xFF}) // malformed: counted, dropped
	s.Run()
	if len(got) != 1 || got[0].Version != 3 {
		t.Fatalf("delivered = %v", got)
	}
	m := rt.Metrics("push")
	if m.Requests != 2 || m.DecodeErrors != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// attemptTransport runs one bare attempt per round trip, no policy.
type attemptTransport AttemptFunc

func (a attemptTransport) RoundTrip(dst simnet.Addr, service string, payload []byte) ([]byte, error) {
	return a(dst, service, payload, 0)
}

func TestSealedSharesEndpointCounters(t *testing.T) {
	s, net := newNet()
	rng := cryptoutil.NewSeededReader(1)
	keys, _ := cryptoutil.NewKeyPair(rng)
	rt := NewRuntime(net.NewNode("server"))
	Register(rt, "feed", wire.DecodeFeed, echoFeed)
	if err := rt.EnableSealed(keys, rng, "feed"); err != nil {
		t.Fatal(err)
	}
	cli := net.NewNode("client")
	var plain, sealed *wire.Feed
	var err1, err2 error
	s.Go(func() {
		plain, err1 = Invoke(Plain{Node: cli}, "server", "feed",
			&wire.Feed{Version: 1}, wire.DecodeFeed)
		sealed, err2 = Invoke(attemptTransport(SealedAttempt(cli, keys.Public(), rng)),
			"server", "feed", &wire.Feed{Version: 10}, wire.DecodeFeed)
	})
	s.Run()
	if err1 != nil || err2 != nil {
		t.Fatalf("errs = %v, %v", err1, err2)
	}
	if plain.Version != 2 || sealed.Version != 11 {
		t.Fatalf("versions = %d, %d", plain.Version, sealed.Version)
	}
	// Both transports dispatch into the same endpoint.
	if m := rt.Metrics("feed"); m.Requests != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestEnableSealedRequiresRegistration(t *testing.T) {
	_, net := newNet()
	rng := cryptoutil.NewSeededReader(1)
	keys, _ := cryptoutil.NewKeyPair(rng)
	rt := NewRuntime(net.NewNode("server"))
	if err := rt.EnableSealed(keys, rng, "ghost"); err == nil {
		t.Fatal("EnableSealed accepted an unregistered service")
	}
}

func TestReRegistrationKeepsCounters(t *testing.T) {
	s, net := newNet()
	rt := NewRuntime(net.NewNode("server"))
	Register(rt, "feed", wire.DecodeFeed, echoFeed)
	cli := net.NewNode("client")
	s.Go(func() {
		_, _ = Invoke(Plain{Node: cli}, "server", "feed", &wire.Feed{Version: 1}, wire.DecodeFeed)
	})
	s.Run()
	// Replace the handler; the endpoint's history must survive.
	Register(rt, "feed", wire.DecodeFeed, func(simnet.Addr, *wire.Feed) (*wire.Feed, error) {
		return &wire.Feed{Version: 99}, nil
	})
	var resp *wire.Feed
	s.Go(func() {
		resp, _ = Invoke(Plain{Node: cli}, "server", "feed", &wire.Feed{Version: 1}, wire.DecodeFeed)
	})
	s.Run()
	if resp == nil || resp.Version != 99 {
		t.Fatalf("replacement handler not in effect: %+v", resp)
	}
	if m := rt.Metrics("feed"); m.Requests != 2 {
		t.Fatalf("metrics = %+v (history lost)", m)
	}
	// AddTo rolls the live counters into whatever the aggregate already
	// holds — a second runtime's share, here the same one again.
	agg := rt.Snapshot()
	rt.AddTo(agg)
	if m := agg["feed"]; m.Requests != 4 || m.Hist.Count() != 4 || rt.Metrics("feed").Hist.Count() != 2 {
		t.Fatalf("AddTo into a snapshot = %+v (hist %d), want the counters doubled", m, m.Hist.Count())
	}
	if len(rt.order) != 1 {
		t.Fatalf("services = %v", rt.order)
	}
}

func TestSnapshotListsEveryEndpoint(t *testing.T) {
	_, net := newNet()
	rt := NewRuntime(net.NewNode("server"))
	Register(rt, "a", wire.DecodeFeed, echoFeed)
	RegisterOneWay(rt, "b", wire.DecodeFeed, func(simnet.Addr, *wire.Feed) {})
	RegisterRaw(rt, "c", func(_ simnet.Addr, p []byte) ([]byte, error) { return p, nil })
	snap := rt.Snapshot()
	for _, name := range []string{"a", "b", "c"} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("snapshot missing %q: %v", name, snap)
		}
	}
}

func TestDeployFarmOrderAndVIP(t *testing.T) {
	s, net := newNet()
	type member struct{ rt *Runtime }
	var built []simnet.Addr
	members, nodes, err := DeployFarm(net, "farm.vip", 3,
		func(i int) simnet.Addr { return simnet.Addr(fmt.Sprintf("backend-%d", i+1)) },
		func(node *simnet.Node) (member, error) {
			built = append(built, node.Addr())
			rt := NewRuntime(node)
			Register(rt, "feed", wire.DecodeFeed, echoFeed)
			return member{rt: rt}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 3 || len(nodes) != 3 {
		t.Fatalf("deployed %d members, %d nodes", len(members), len(nodes))
	}
	for i, a := range built {
		want := simnet.Addr(fmt.Sprintf("backend-%d", i+1))
		if a != want {
			t.Fatalf("build order: got %v", built)
		}
	}
	// The VIP spreads requests across the farm.
	cli := net.NewNode("client")
	s.Go(func() {
		for i := 0; i < 6; i++ {
			if _, err := Invoke(Plain{Node: cli}, "farm.vip", "feed",
				&wire.Feed{Version: 1}, wire.DecodeFeed); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
		}
	})
	s.Run()
	total := int64(0)
	for _, m := range members {
		got := m.rt.Metrics("feed").Requests
		if got == 0 {
			t.Fatal("a farm member served nothing — VIP not spreading")
		}
		total += got
	}
	if total != 6 {
		t.Fatalf("farm served %d requests, want 6", total)
	}
}

func TestDeployFarmBuildError(t *testing.T) {
	_, net := newNet()
	boom := errors.New("boom")
	_, _, err := DeployFarm(net, "farm.vip", 2,
		func(i int) simnet.Addr { return simnet.Addr(fmt.Sprintf("n%d", i)) },
		func(*simnet.Node) (struct{}, error) { return struct{}{}, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}
