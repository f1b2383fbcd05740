package simnet

import (
	"errors"
	"math"
	"slices"
	"sort"
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

// sleepUntil parks the calling simulated goroutine until t.
func sleepUntil(s *sim.Scheduler, t time.Time) { s.Sleep(t.Sub(s.Now())) }

func TestLinkLossOverrideIsolatesOneLink(t *testing.T) {
	s, net, _, cli := newEchoPair(1)
	srv2 := net.NewNode("server2")
	srv2.Handle("echo", func(_ Addr, p []byte) ([]byte, error) { return p, nil })

	// Total loss on client↔server only, for 10s; client↔server2 stays
	// clean.
	net.Inject(Fault{Kind: Loss, At: t0, For: 10 * time.Second,
		A: []Addr{"client"}, B: []Addr{"server"}, P: 1})

	var errLossy, errClean, errHealed error
	s.Go(func() {
		_, errLossy = cli.Call("server", "echo", []byte("x"), time.Second)
		_, errClean = cli.Call("server2", "echo", []byte("x"), time.Second)
		sleepUntil(s, t0.Add(10*time.Second))
		_, errHealed = cli.Call("server", "echo", []byte("x"), time.Second)
	})
	s.Run()
	if !errors.Is(errLossy, ErrRPCTimeout) {
		t.Fatalf("lossy link: err = %v, want ErrRPCTimeout", errLossy)
	}
	if errClean != nil {
		t.Fatalf("override leaked onto an unrelated link: %v", errClean)
	}
	// The window's end clears the override and the link heals.
	if errHealed != nil {
		t.Fatalf("ended override still drops: %v", errHealed)
	}
}

func TestLinkLossOverrideSymmetric(t *testing.T) {
	// The override keys on the unordered pair: a loss on (server, client)
	// must also drop client→server traffic.
	s, net, _, cli := newEchoPair(1)
	net.Inject(Fault{Kind: Loss, A: []Addr{"server"}, B: []Addr{"client"}, P: 1})
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
	net.Inject(Fault{Kind: Down, At: t0.Add(10 * time.Second), For: 5 * time.Second, A: []Addr{"server"}})

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
	// For 0 schedules no restart.
	net.Inject(Fault{Kind: Down, At: t0.Add(time.Second), A: []Addr{"server"}})
	s.RunUntil(t0.Add(time.Hour))
	if srv.Up() {
		t.Fatal("permanently-downed node came back")
	}
}

func TestSchedulePartitionCutsAndHeals(t *testing.T) {
	s, net, _, cli := newEchoPair(1)
	cli2 := net.NewNode("client2")

	// Partition {client, client2} from {server} during [10s, 20s).
	net.Inject(Fault{Kind: Partition, At: t0.Add(10 * time.Second), For: 10 * time.Second,
		A: []Addr{"client", "client2"}, B: []Addr{"server"}})

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

// TestOverlappingWindowsCompose: two windows of one fault over one
// link or node, [10s, 20s) and [15s, 25s), hold it from 10s to 25s. The
// first window's end must not end the second early.
func TestOverlappingWindowsCompose(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind FaultKind
	}{
		{"partition", Partition},
		{"down", Down},
		{"loss", Loss},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, net, _, cli := newEchoPair(1)
			for _, at := range []time.Duration{10 * time.Second, 15 * time.Second} {
				f := Fault{Kind: tc.kind, At: t0.Add(at), For: 10 * time.Second, A: []Addr{"server"}, P: 1}
				if tc.kind != Down {
					f.B = []Addr{"client"}
				}
				net.Inject(f)
			}
			got := map[time.Duration]bool{}
			s.Go(func() {
				for _, at := range []time.Duration{5, 12, 22, 26} {
					sleepUntil(s, t0.Add(at*time.Second))
					_, err := cli.Call("server", "echo", nil, time.Second)
					got[at] = err == nil
				}
			})
			s.Run()
			want := map[time.Duration]bool{5: true, 12: false, 22: false, 26: true}
			for at, ok := range want {
				if got[at] != ok {
					t.Errorf("+%ds: call succeeded = %v, want %v", at, got[at], ok)
				}
			}
		})
	}
}

// TestLossFallsBackToOlderWindow: a lossless link with a total-loss
// window over [10s, 20s) on top drops only inside that window; when it
// ends, the older window's P is in force again.
func TestLossFallsBackToOlderWindow(t *testing.T) {
	s, net, _, cli := newEchoPair(1)
	link := Fault{Kind: Loss, At: t0, A: []Addr{"server"}, B: []Addr{"client"}}
	burst := link
	burst.At, burst.For, burst.P = t0.Add(10*time.Second), 10*time.Second, 1
	net.Inject(link, burst)
	got := map[time.Duration]bool{}
	s.Go(func() {
		for _, at := range []time.Duration{5, 12, 22} {
			sleepUntil(s, t0.Add(at*time.Second))
			_, err := cli.Call("server", "echo", nil, time.Second)
			got[at] = err == nil
		}
	})
	s.Run()
	want := map[time.Duration]bool{5: true, 12: false, 22: true}
	for at, ok := range want {
		if got[at] != ok {
			t.Errorf("+%ds: call succeeded = %v, want %v", at, got[at], ok)
		}
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
			// A window wholly in the past opens and closes before any
			// traffic.
			net.Inject(Fault{Kind: Loss, At: t0.Add(-time.Second), For: time.Second,
				A: []Addr{"client"}, B: []Addr{"server"}, P: 0.5})
			if net.ovCount.Load() != 0 {
				t.Fatal("an ended override left the fast path off")
			}
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

// FuzzInject checks the network's fault state against a naive
// recomputation from the window list. Each five input bytes draw one
// fault over four addresses. At every window boundary the cut links, the
// down nodes and the loss on every link and the base rate must match
// the reference, and the fast-path counts must equal the number of cut
// and overridden links, so they are back at 0 once every window ends.
func FuzzInject(f *testing.F) {
	// Two partitions, two outages and two losses of one link or node over
	// [10s, 20s) and [15s, 25s); then a mix with global loss, permanent
	// faults, duplicate links and windows that open at the start; then a
	// permanent loss of 1/4 on one link and on every link, each with a
	// 3/4 window over [5s, 10s) on top.
	f.Add([]byte{1, 10, 10, 1, 2, 1, 15, 10, 1, 2, 2, 10, 10, 4, 0, 2, 15, 10, 4, 0, 3, 10, 10, 1, 8, 6, 15, 10, 8, 1})
	f.Add([]byte{0, 0, 3, 0, 0, 12, 2, 4, 0, 0, 1, 0, 0, 15, 15, 5, 3, 2, 3, 6, 2, 7, 0, 9, 9, 9, 3, 1, 6, 3})
	f.Add([]byte{4, 1, 1, 1, 1, 7, 1, 1, 2, 2, 10, 1, 1, 4, 4, 13, 1, 1, 8, 8})
	f.Add([]byte{3, 0, 0, 1, 2, 9, 5, 5, 1, 2, 3, 0, 0, 0, 0, 9, 5, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		addrs := []Addr{"a", "b", "c", "d"}
		pick := func(mask byte) []Addr {
			var out []Addr
			for i, a := range addrs {
				if mask&(1<<i) != 0 {
					out = append(out, a)
				}
			}
			return out
		}
		s := sim.New(t0, 1)
		net := New(s)
		nodes := map[Addr]*Node{}
		for _, a := range addrs {
			nodes[a] = net.NewNode(a)
		}
		var plan, ref []Fault
		for ; len(data) >= 5 && len(plan) < 32; data = data[5:] {
			fl := Fault{
				Kind: FaultKind(data[0] % 3),
				At:   t0.Add(time.Duration(data[1]%16) * time.Second),
				For:  time.Duration(data[2]%16) * time.Second,
				A:    pick(data[3]),
				B:    pick(data[4]),
				P:    float64(data[0]/3%5) / 4,
			}
			ref = append(ref, fl)
			fl.A, fl.B = slices.Clone(fl.A), slices.Clone(fl.B)
			plan = append(plan, fl)
		}
		net.Inject(plan...)
		for _, fl := range plan { // Inject copied them
			for i := range fl.A {
				fl.A[i] = "zz"
			}
		}

		forever := time.Duration(math.MaxInt64)
		end := func(fl Fault) time.Time {
			if fl.For == 0 {
				return t0.Add(forever)
			}
			return fl.At.Add(fl.For)
		}
		covers := func(fl Fault, x, y Addr) int {
			n := 0
			for _, a := range fl.A {
				for _, b := range fl.B {
					if a == x && b == y || a == y && b == x {
						n++
					}
				}
			}
			return n
		}
		bounds := []time.Time{t0}
		permanent := false
		for _, fl := range ref {
			bounds = append(bounds, fl.At)
			if fl.For > 0 {
				bounds = append(bounds, end(fl))
			} else {
				permanent = true
			}
		}
		sort.Slice(bounds, func(i, j int) bool { return bounds[i].Before(bounds[j]) })

		for _, now := range bounds {
			s.RunUntil(now)
			// Loss in force over a set of windows: the P of the newest open
			// one (latest At, then latest in the plan).
			loss := func(match func(Fault) int) (float64, bool) {
				last := -1
				for i, fl := range ref {
					if fl.Kind == Loss && match(fl) > 0 && !fl.At.After(now) && now.Before(end(fl)) &&
						(last < 0 || !fl.At.Before(ref[last].At)) {
						last = i
					}
				}
				if last < 0 {
					return 0, false
				}
				return ref[last].P, true
			}
			base, _ := loss(func(fl Fault) int {
				if len(fl.A) == 0 && len(fl.B) == 0 {
					return 1
				}
				return 0
			})
			net.mu.Lock()
			if got := math.Float64frombits(net.lossRate.Load()); got != base {
				t.Errorf("%v: base loss %v, want %v", now.Sub(t0), got, base)
			}
			cuts, ovs := 0, 0
			for i, x := range addrs {
				for _, y := range addrs[i+1:] {
					k := linkKey(x, y)
					cut := 0
					for _, fl := range ref {
						if fl.Kind == Partition && !fl.At.After(now) && now.Before(end(fl)) {
							cut += covers(fl, x, y)
						}
					}
					if net.cut[k] != cut {
						t.Errorf("%v: link %s-%s in %d partitions, want %d", now.Sub(t0), x, y, net.cut[k], cut)
					}
					p, ov := loss(func(fl Fault) int { return covers(fl, x, y) })
					if w, ok := net.linkLoss[k]; ok != ov || lossP(w) != p {
						t.Errorf("%v: link %s-%s loss %v (override %v), want %v (%v)", now.Sub(t0), x, y, lossP(w), ok, p, ov)
					}
					if cut > 0 {
						cuts++
					}
					if ov {
						ovs++
					}
				}
			}
			net.mu.Unlock()
			if c, o := net.cutCount.Load(), net.ovCount.Load(); c != int64(cuts) || o != int64(ovs) {
				t.Errorf("%v: fast-path counts cut %d override %d, want %d and %d", now.Sub(t0), c, o, cuts, ovs)
			}
			for _, x := range addrs {
				down := 0
				for _, fl := range ref {
					if fl.Kind == Down && !fl.At.After(now) && now.Before(end(fl)) {
						for _, a := range fl.A {
							if a == x {
								down++
							}
						}
					}
				}
				nodes[x].mu.Lock()
				got := nodes[x].downs
				nodes[x].mu.Unlock()
				if got != down {
					t.Errorf("%v: node %s in %d outages, want %d", now.Sub(t0), x, got, down)
				}
			}
		}
		if !permanent && (net.cutCount.Load() != 0 || net.ovCount.Load() != 0) {
			t.Errorf("after the last window: cutCount %d, ovCount %d, want 0", net.cutCount.Load(), net.ovCount.Load())
		}
	})
}

// Up reports whether the node currently accepts traffic.
func (nd *Node) Up() bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.downs == 0
}
