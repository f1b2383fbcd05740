package svc

import (
	"fmt"
	"testing"
	"time"

	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

// TestVIPDrainCompletesRoutedRequests pins what covers a member drained
// out of a VIP pool: every request the VIP routed to it before the drain
// — still in flight, or queued behind its busy worker — completes on
// that member, and every request sent after the drain lands on a
// survivor, even while the departed member is still working.
func TestVIPDrainCompletesRoutedRequests(t *testing.T) {
	s, net := newNet()
	var rts []*Runtime
	var nodes []*simnet.Node
	for i := 1; i <= 3; i++ {
		node := net.NewNode(simnet.Addr(fmt.Sprintf("m%d", i)))
		node.SetCapacity(1, func() time.Duration { return 100 * time.Millisecond })
		rt := NewRuntime(node)
		Register(rt, "feed", wire.DecodeFeed, echoFeed)
		rts, nodes = append(rts, rt), append(nodes, node)
	}
	net.NewVIP("farm.vip", nodes...)
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

// TestVIPBackendAddRemoveLive pins mid-run VIP pool mutation: an added
// backend starts taking round-robin turns, a removed one stops getting
// new VIP traffic but stays directly addressable.
func TestVIPBackendAddRemoveLive(t *testing.T) {
	s, net := newNet()
	build := func(addr simnet.Addr) (*simnet.Node, *Runtime) {
		node := net.NewNode(addr)
		rt := NewRuntime(node)
		Register(rt, "feed", wire.DecodeFeed, echoFeed)
		return node, rt
	}
	b1node, b1 := build("b1")
	b2node, b2 := build("b2")
	net.NewVIP("farm.vip", b1node, b2node)
	b3node, b3 := build("b3")
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
	if got := b3.metrics("feed").Requests; got != 2 {
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
	if got := b3.metrics("feed").Requests; got != 3 {
		t.Fatalf("drained backend at %d requests, want 2 VIP + 1 direct", got)
	}
	if total := b1.metrics("feed").Requests + b2.metrics("feed").Requests; total != 8 {
		t.Fatalf("original members served %d, want 8", total)
	}
}
