package svc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

// TestSheddingRefusesAboveHighWater pins the load-shedding semantics:
// with a high-water mark of 2 and a slow single worker, a burst of 5
// concurrent calls admits 2 and refuses 3 with wire.CodeOverloaded —
// before they occupy a worker or a queue slot.
func TestSheddingRefusesAboveHighWater(t *testing.T) {
	s, net := newNet()
	node := net.NewNode("server")
	node.SetCapacity(1, func() time.Duration { return 100 * time.Millisecond })
	rt := NewRuntime(node)
	Register(rt, "feed", wire.DecodeFeed, echoFeed)
	if err := rt.SetShedding("feed", 2); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	okN, shedN := 0, 0
	for i := 0; i < 5; i++ {
		cli := net.NewNode(simnet.Addr("client" + string(rune('a'+i))))
		s.Go(func() {
			_, err := Invoke(Plain{Node: cli}, "server", "feed",
				&wire.Feed{Version: 1}, wire.DecodeFeed)
			mu.Lock()
			defer mu.Unlock()
			var se *wire.ServiceError
			switch {
			case err == nil:
				okN++
			case errors.As(err, &se) && se.Code == wire.CodeOverloaded:
				shedN++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		})
	}
	s.Run()
	if okN != 2 || shedN != 3 {
		t.Fatalf("ok=%d shed=%d, want 2/3", okN, shedN)
	}
	m := rt.Metrics("feed")
	if m.Shed != 3 {
		t.Fatalf("Shed = %d, want 3", m.Shed)
	}
	// Shed requests never reached the handler: only the admitted two are
	// requests.
	if m.Requests != 2 || m.Errors != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestSheddingInflightDrains pins that completions free admission slots:
// sequential calls never shed regardless of the total count.
func TestSheddingInflightDrains(t *testing.T) {
	s, net := newNet()
	node := net.NewNode("server")
	node.SetCapacity(1, func() time.Duration { return 10 * time.Millisecond })
	rt := NewRuntime(node)
	Register(rt, "feed", wire.DecodeFeed, echoFeed)
	if err := rt.SetShedding("feed", 1); err != nil {
		t.Fatal(err)
	}
	cli := net.NewNode("client")
	s.Go(func() {
		for i := 0; i < 8; i++ {
			if _, err := Invoke(Plain{Node: cli}, "server", "feed",
				&wire.Feed{Version: 1}, wire.DecodeFeed); err != nil {
				t.Errorf("sequential call %d shed: %v", i, err)
				return
			}
		}
	})
	s.Run()
	m := rt.Metrics("feed")
	if m.Requests != 8 || m.Shed != 0 {
		t.Fatalf("metrics = %+v, want 8 requests / 0 shed", m)
	}
}

func TestSetSheddingUnregisteredService(t *testing.T) {
	_, net := newNet()
	rt := NewRuntime(net.NewNode("server"))
	if err := rt.SetShedding("nope", 3); err == nil {
		t.Fatal("SetShedding on an unregistered service succeeded")
	}
}

// TestPolicyRetriesOverloadEvenNonIdempotent pins the overload-retry
// carve-out: a wire.CodeOverloaded answer proves the request was never
// processed, so even one-time-token rounds (normally never retried) are
// safe to resend after backoff — and the breaker treats the answer as
// proof of life, not an outage.
func TestPolicyRetriesOverloadEvenNonIdempotent(t *testing.T) {
	for _, service := range []string{wire.SvcLogin1, wire.SvcLogin2} {
		s := sim.New(t0, 1)
		p := NewPolicy(s, PolicyConfig{MaxAttempts: 3, BreakerThreshold: 2})
		attempts := 0
		var resp []byte
		var err error
		s.Go(func() {
			resp, err = p.do("um.vip", service, nil, func(simnet.Addr, string, []byte, time.Duration) ([]byte, error) {
				attempts++
				if attempts <= 2 {
					return nil, wire.Errf(wire.CodeOverloaded, "shedding")
				}
				return []byte("ok"), nil
			})
		})
		s.Run()
		if err != nil || string(resp) != "ok" {
			t.Fatalf("%s: resp=%q err=%v", service, resp, err)
		}
		if attempts != 3 {
			t.Fatalf("%s: %d attempts, want 3", service, attempts)
		}
		st := p.Stats()[service]
		if st.Overloads != 2 {
			t.Fatalf("%s: overloads = %d, want 2", service, st.Overloads)
		}
		// Two overload answers at threshold 2: a dead-destination signal
		// would have opened the breaker; a shedding-but-alive one must not.
		if p.BreakerOpen("um.vip") {
			t.Fatalf("%s: overload answers tripped the breaker", service)
		}
	}
}

// TestPolicyOverloadBudgetExhausts pins the failure shape when the
// destination sheds every attempt: the raw overload error surfaces after
// MaxAttempts, counted as a failure.
func TestPolicyOverloadBudgetExhausts(t *testing.T) {
	s := sim.New(t0, 1)
	p := NewPolicy(s, PolicyConfig{MaxAttempts: 2})
	attempts := 0
	var err error
	s.Go(func() {
		_, err = p.do("um.vip", wire.SvcLogin1, nil, func(simnet.Addr, string, []byte, time.Duration) ([]byte, error) {
			attempts++
			return nil, wire.Errf(wire.CodeOverloaded, "shedding")
		})
	})
	s.Run()
	if attempts != 2 {
		t.Fatalf("%d attempts, want 2", attempts)
	}
	var se *wire.ServiceError
	if !errors.As(err, &se) || se.Code != wire.CodeOverloaded {
		t.Fatalf("err = %v, want %s", err, wire.CodeOverloaded)
	}
	st := p.Stats()[wire.SvcLogin1]
	if st.Overloads != 2 || st.Failures != 1 {
		t.Fatalf("stats = %+v, want 2 overloads / 1 failure", st)
	}
}

// TestVIPBackendAddRemoveLive pins mid-run VIP pool mutation: an added
// backend starts taking round-robin turns, a removed one stops getting
// new VIP traffic but stays directly addressable.
func TestVIPBackendAddRemoveLive(t *testing.T) {
	s, net := newNet()
	type member struct{ rt *Runtime }
	build := func(node *simnet.Node) (member, error) {
		rt := NewRuntime(node)
		Register(rt, "feed", wire.DecodeFeed, echoFeed)
		return member{rt: rt}, nil
	}
	members, _, err := DeployFarm(net, "farm.vip", 2,
		func(i int) simnet.Addr { return simnet.Addr([]string{"b1", "b2"}[i]) },
		build)
	if err != nil {
		t.Fatal(err)
	}
	b3node := net.NewNode("b3")
	b3, err := build(b3node)
	if err != nil {
		t.Fatal(err)
	}
	cli := net.NewNode("client")
	call := func() {
		if _, err := Invoke(Plain{Node: cli}, "farm.vip", "feed",
			&wire.Feed{Version: 1}, wire.DecodeFeed); err != nil {
			t.Errorf("vip call: %v", err)
		}
	}
	s.Go(func() {
		net.AddVIPBackend("farm.vip", b3node)
		net.AddVIPBackend("farm.vip", b3node) // duplicate: no-op
		for i := 0; i < 6; i++ {
			call()
		}
	})
	s.Run()
	if got := b3.rt.Metrics("feed").Requests; got != 2 {
		t.Fatalf("added backend served %d of 6, want its round-robin 2", got)
	}

	s.Go(func() {
		net.RemoveVIPBackend("farm.vip", "b3")
		for i := 0; i < 4; i++ {
			call()
		}
		// Direct traffic still lands on the drained node.
		if _, err := Invoke(Plain{Node: cli}, "b3", "feed",
			&wire.Feed{Version: 1}, wire.DecodeFeed); err != nil {
			t.Errorf("direct call to drained backend: %v", err)
		}
	})
	s.Run()
	if got := b3.rt.Metrics("feed").Requests; got != 3 {
		t.Fatalf("drained backend at %d requests, want 2 VIP + 1 direct", got)
	}
	total := int64(0)
	for _, m := range members {
		total += m.rt.Metrics("feed").Requests
	}
	if total != 8 {
		t.Fatalf("original members served %d, want 8", total)
	}
}

// TestDeployFarmBuildErrorLeavesNoVIPOrNodes strengthens the build-error
// contract: a mid-deploy failure leaves neither the VIP nor any
// partially built backend registered.
func TestDeployFarmBuildErrorLeavesNoVIPOrNodes(t *testing.T) {
	s, net := newNet()
	boom := errors.New("boom")
	calls := 0
	_, _, err := DeployFarm(net, "farm.vip", 3,
		func(i int) simnet.Addr { return simnet.Addr([]string{"n1", "n2", "n3"}[i]) },
		func(node *simnet.Node) (struct{}, error) {
			calls++
			if calls == 2 {
				return struct{}{}, boom
			}
			Register(NewRuntime(node), "feed", wire.DecodeFeed, echoFeed)
			return struct{}{}, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// No VIP: a call to it fails instead of reaching a half-farm.
	cli := net.NewNode("client")
	var cerr error
	s.Go(func() {
		_, cerr = cli.Call("farm.vip", "feed", (&wire.Feed{Version: 1}).Encode(), 2*time.Second)
	})
	s.Run()
	if cerr == nil {
		t.Fatal("call to the aborted farm's VIP succeeded")
	}
	// Both touched addresses are free again (NewNode panics on dups).
	net.NewNode("n1")
	net.NewNode("n2")
}

// TestDeployFarmHeterogeneousAddrsDeterministicOrder covers addr
// callbacks that don't share one naming scheme: member order must follow
// the index sequence, not the address collation.
func TestDeployFarmHeterogeneousAddrsDeterministicOrder(t *testing.T) {
	_, net := newNet()
	addrs := []simnet.Addr{"zeta.provider", "um1.other", "alpha"}
	var built []simnet.Addr
	_, nodes, err := DeployFarm(net, "farm.vip", 3,
		func(i int) simnet.Addr { return addrs[i] },
		func(node *simnet.Node) (struct{}, error) {
			built = append(built, node.Addr())
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range built {
		if a != addrs[i] {
			t.Fatalf("build order %v, want %v", built, addrs)
		}
	}
	for i, nd := range nodes {
		if nd.Addr() != addrs[i] {
			t.Fatalf("node order %v-th = %v, want %v", i, nd.Addr(), addrs[i])
		}
	}
}
