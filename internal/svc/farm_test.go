package svc

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

// TestShardViewGraceWindowCoversOldOwner pins what covers a departing
// farm member now that the elastic farm is a VIP pool, not a sharded
// ring with a grace window: every request the VIP routed to a member
// before it was drained — still in flight, or queued behind its busy
// worker — completes on that member, and every request sent after the
// drain lands on a survivor, even while the departed member is still
// working.
func TestShardViewGraceWindowCoversOldOwner(t *testing.T) {
	s, net := newNet()
	rts, _, err := DeployFarm(net, "farm.vip", 3,
		func(i int) simnet.Addr { return simnet.Addr(fmt.Sprintf("m%d", i+1)) },
		func(node *simnet.Node) (*Runtime, error) {
			node.SetCapacity(1, func() time.Duration { return 100 * time.Millisecond })
			rt := NewRuntime(node)
			Register(rt, "feed", wire.DecodeFeed, echoFeed)
			return rt, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	cli := net.NewNode("client")
	failed := 0
	wave := func(n int) {
		for i := 0; i < n; i++ {
			s.Go(func() {
				if _, err := Invoke(Plain{Node: cli}, "farm.vip", "feed",
					&wire.Feed{Version: 1}, wire.DecodeFeed); err != nil {
					failed++
				}
			})
		}
	}
	s.Go(func() {
		wave(6) // round-robin: two to each member, sent at t=0
		// Both of m3's requests are on the wire (1ms latency) when it
		// leaves the pool; the second will queue behind the first.
		s.Sleep(500 * time.Microsecond)
		net.RemoveVIPBackend("farm.vip", "m3")
		// m3 is mid-service here, with one request still queued.
		s.Sleep(50 * time.Millisecond)
		wave(4)
	})
	s.Run()
	if failed != 0 {
		t.Fatalf("%d of 10 requests failed across the drain", failed)
	}
	if got := rts[2].metrics("feed").Requests; got != 2 {
		t.Fatalf("drained member served %d, want exactly the 2 routed before it left", got)
	}
	if got := rts[0].metrics("feed").Requests + rts[1].metrics("feed").Requests; got != 8 {
		t.Fatalf("survivors served %d, want 8", got)
	}
}

// TestDeployShardedFarmBuildErrorCleansUp pins that a farm deploy which
// fails part-way can be retried as it stands: the failure frees every
// member address it took, so a second DeployFarm with the same VIP and
// addresses builds the whole farm, and the VIP spreads requests over all
// of it. The elastic User Manager farm is deployed this way, then grown
// and drained live.
func TestDeployShardedFarmBuildErrorCleansUp(t *testing.T) {
	s, net := newNet()
	addr := func(i int) simnet.Addr { return simnet.Addr(fmt.Sprintf("m%d", i+1)) }
	boom := errors.New("boom")
	calls := 0
	_, _, err := DeployFarm(net, "farm.vip", 3, addr,
		func(*simnet.Node) (struct{}, error) {
			calls++
			if calls == 2 {
				return struct{}{}, boom
			}
			return struct{}{}, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}

	// NewNode panics on a taken address, so the retry itself checks
	// that m1 and m2 were freed.
	rts, nodes, err := DeployFarm(net, "farm.vip", 3, addr,
		func(node *simnet.Node) (*Runtime, error) {
			rt := NewRuntime(node)
			Register(rt, "feed", wire.DecodeFeed, echoFeed)
			return rt, nil
		})
	if err != nil {
		t.Fatalf("retried deploy: %v", err)
	}
	if len(nodes) != 3 {
		t.Fatalf("retried deploy built %d members, want 3", len(nodes))
	}
	cli := net.NewNode("client")
	s.Go(func() {
		for i := 0; i < 6; i++ {
			if _, err := Invoke(Plain{Node: cli}, "farm.vip", "feed",
				&wire.Feed{Version: 1}, wire.DecodeFeed); err != nil {
				t.Errorf("vip call: %v", err)
			}
		}
	})
	s.Run()
	for i, rt := range rts {
		if got := rt.metrics("feed").Requests; got != 2 {
			t.Fatalf("member m%d served %d of 6, want its round-robin 2", i+1, got)
		}
	}
}
