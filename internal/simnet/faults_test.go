package simnet

import (
	"errors"
	"testing"
	"time"

	"p2pdrm/internal/sim"
)

// newEchoPair wires a server (with an "echo" handler) and a client on a
// fresh network with a fixed 1ms one-way latency.
func newEchoPair(seed int64) (*sim.Scheduler, *Network, *Node, *Node) {
	s := sim.New(t0, seed)
	net := New(s, WithLatency(fixedLatency(time.Millisecond)))
	srv := net.NewNode("server")
	srv.Handle("echo", func(_ Addr, p []byte) ([]byte, error) { return p, nil })
	cli := net.NewNode("client")
	return s, net, srv, cli
}

func TestLinkLossOverrideIsolatesOneLink(t *testing.T) {
	s, net, _, cli := newEchoPair(1)
	srv2 := net.NewNode("server2")
	srv2.Handle("echo", func(_ Addr, p []byte) ([]byte, error) { return p, nil })

	// Total loss on client↔server only; client↔server2 stays clean.
	net.SetLinkLoss("client", "server", 1.0)

	var errLossy, errClean error
	s.Go(func() {
		_, errLossy = cli.Call("server", "echo", []byte("x"), time.Second)
		_, errClean = cli.Call("server2", "echo", []byte("x"), time.Second)
	})
	s.Run()
	if !errors.Is(errLossy, ErrRPCTimeout) {
		t.Fatalf("lossy link: err = %v, want ErrRPCTimeout", errLossy)
	}
	if errClean != nil {
		t.Fatalf("override leaked onto an unrelated link: %v", errClean)
	}

	// A negative probability clears the override and the link heals.
	net.SetLinkLoss("client", "server", -1)
	var errHealed error
	s.Go(func() { _, errHealed = cli.Call("server", "echo", []byte("x"), time.Second) })
	s.Run()
	if errHealed != nil {
		t.Fatalf("cleared override still drops: %v", errHealed)
	}
}

func TestLinkLossOverrideSymmetric(t *testing.T) {
	// The override keys on the unordered pair: setting (server, client)
	// must also drop client→server traffic.
	s, net, _, cli := newEchoPair(1)
	net.SetLinkLoss("server", "client", 1.0)
	var err error
	s.Go(func() { _, err = cli.Call("server", "echo", nil, time.Second) })
	s.Run()
	if !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("err = %v, want ErrRPCTimeout", err)
	}
}

func TestScheduleDownCrashAndRestartWindow(t *testing.T) {
	s, net, srv, cli := newEchoPair(1)
	// Crash at +10s, restart 5s later.
	net.ScheduleDown("server", t0.Add(10*time.Second), 5*time.Second)

	call := func() error {
		_, err := cli.Call("server", "echo", nil, time.Second)
		return err
	}
	var before, during, after error
	s.Go(func() {
		before = call() // t=0: up
		s.Sleep(12 * time.Second)
		during = call() // t≈12s: inside the outage window
		s.Sleep(5 * time.Second)
		after = call() // t≈18s: restarted
	})
	s.Run()
	if before != nil {
		t.Fatalf("call before crash: %v", before)
	}
	if !errors.Is(during, ErrRPCTimeout) {
		t.Fatalf("call during outage: %v, want ErrRPCTimeout", during)
	}
	if after != nil {
		t.Fatalf("call after restart: %v", after)
	}
	if !srv.Up() {
		t.Fatal("server still marked down after the restart fired")
	}
}

func TestScheduleDownPermanent(t *testing.T) {
	s, net, srv, _ := newEchoPair(1)
	// downFor ≤ 0 means no restart is scheduled.
	net.ScheduleDown("server", t0.Add(time.Second), 0)
	s.RunUntil(t0.Add(time.Hour))
	if srv.Up() {
		t.Fatal("permanently-downed node came back")
	}
}

func TestSchedulePartitionCutsAndHeals(t *testing.T) {
	s, net, _, cli := newEchoPair(1)
	cli2 := net.NewNode("client2")

	// Partition {client, client2} from {server} during [10s, 20s).
	net.SchedulePartition([]Addr{"client", "client2"}, []Addr{"server"},
		t0.Add(10*time.Second), 10*time.Second)

	var before, during1, during2, after error
	s.Go(func() {
		_, before = cli.Call("server", "echo", nil, time.Second)
		s.Sleep(12 * time.Second)
		_, during1 = cli.Call("server", "echo", nil, time.Second)
		_, during2 = cli2.Call("server", "echo", nil, time.Second)
		// The partition is between the two sides only: peers on the same
		// side still reach each other.
		if _, err := cli.Call("client2", "echo", nil, time.Second); err == nil {
			t.Error("expected no_service from client2, got success")
		} else if errors.Is(err, ErrRPCTimeout) {
			t.Errorf("same-side traffic partitioned: %v", err)
		}
		s.Sleep(10 * time.Second)
		_, after = cli.Call("server", "echo", nil, time.Second)
	})
	s.Run()
	if before != nil {
		t.Fatalf("pre-partition call failed: %v", before)
	}
	if !errors.Is(during1, ErrRPCTimeout) || !errors.Is(during2, ErrRPCTimeout) {
		t.Fatalf("during partition: %v / %v, want timeouts", during1, during2)
	}
	if after != nil {
		t.Fatalf("post-heal call failed: %v", after)
	}
}

// TestFaultFreeOverridesCostNothing pins the determinism contract: a
// network that never had an override must deliver the exact same event
// timeline as one where an override was set and cleared — and, more
// importantly, the override fast-path check must not consume randomness.
func TestFaultFreeOverridesCostNothing(t *testing.T) {
	run := func(touchOverrides bool) time.Duration {
		s, net, _, cli := newEchoPair(9)
		if touchOverrides {
			net.SetLinkLoss("client", "server", 0.5)
			net.SetLinkLoss("client", "server", -1) // cleared before any traffic
		}
		var done time.Time
		s.Go(func() {
			for i := 0; i < 50; i++ {
				if _, err := cli.Call("server", "echo", nil, time.Second); err != nil {
					t.Errorf("call %d: %v", i, err)
				}
			}
			done = s.Now()
		})
		s.Run()
		return done.Sub(t0)
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("cleared overrides changed the timeline: %v vs %v", a, b)
	}
}

// Up reports whether the node currently accepts traffic.
func (nd *Node) Up() bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.up
}
