package simnet

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"p2pdrm/internal/sim"
)

var t0 = time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)

func fixedLatency(d time.Duration) LatencyModel {
	return LatencyFunc(func(*sim.Scheduler, Addr, Addr) time.Duration { return d })
}

func TestCallRoundTrip(t *testing.T) {
	s := sim.New(t0, 1)
	net := New(s, WithLatency(fixedLatency(10*time.Millisecond)))
	srv := net.NewNode("server")
	cli := net.NewNode("client")
	srv.Handle("echo", func(from Addr, p []byte) ([]byte, error) {
		if from != "client" {
			t.Errorf("from = %q, want client", from)
		}
		return append([]byte("echo:"), p...), nil
	})
	var resp []byte
	var rtt time.Duration
	s.Go(func() {
		start := s.Now()
		var err error
		resp, err = cli.Call("server", "echo", []byte("hi"), 0)
		if err != nil {
			t.Errorf("Call: %v", err)
		}
		rtt = s.Now().Sub(start)
	})
	s.Run()
	if !bytes.Equal(resp, []byte("echo:hi")) {
		t.Fatalf("resp = %q", resp)
	}
	if rtt != 20*time.Millisecond {
		t.Fatalf("rtt = %v, want 20ms", rtt)
	}
}

func TestCallUnknownService(t *testing.T) {
	s := sim.New(t0, 1)
	net := New(s, WithLatency(fixedLatency(time.Millisecond)))
	net.NewNode("server")
	cli := net.NewNode("client")
	var err error
	s.Go(func() { _, err = cli.Call("server", "nope", nil, 0) })
	s.Run()
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != "no_service" {
		t.Fatalf("err = %v, want RemoteError{no_service}", err)
	}
}

func TestCallNoRoute(t *testing.T) {
	s := sim.New(t0, 1)
	net := New(s)
	cli := net.NewNode("client")
	var err error
	s.Go(func() { _, err = cli.Call("ghost", "x", nil, 0) })
	s.Run()
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestCallToDownNodeTimesOut(t *testing.T) {
	s := sim.New(t0, 1)
	net := New(s, WithLatency(fixedLatency(time.Millisecond)))
	srv := net.NewNode("server")
	srv.Handle("x", func(Addr, []byte) ([]byte, error) { return nil, nil })
	srv.setUp(false)
	cli := net.NewNode("client")
	var err error
	var took time.Duration
	s.Go(func() {
		start := s.Now()
		_, err = cli.Call("server", "x", nil, 2*time.Second)
		took = s.Now().Sub(start)
	})
	s.Run()
	if !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("err = %v, want ErrRPCTimeout", err)
	}
	if took != 2*time.Second {
		t.Fatalf("took %v, want the full 2s timeout", took)
	}
}

func TestCutLinkDropsTraffic(t *testing.T) {
	s := sim.New(t0, 1)
	net := New(s, WithLatency(fixedLatency(time.Millisecond)))
	srv := net.NewNode("server")
	srv.Handle("x", func(Addr, []byte) ([]byte, error) { return []byte("ok"), nil })
	cli := net.NewNode("client")
	net.Cut("client", "server", true)
	var err1 error
	s.Go(func() { _, err1 = cli.Call("server", "x", nil, time.Second) })
	s.Run()
	if !errors.Is(err1, ErrRPCTimeout) {
		t.Fatalf("err = %v, want timeout on cut link", err1)
	}
	net.Cut("client", "server", false)
	var err2 error
	s.Go(func() { _, err2 = cli.Call("server", "x", nil, time.Second) })
	s.Run()
	if err2 != nil {
		t.Fatalf("after restoring link: %v", err2)
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	s := sim.New(t0, 1)
	net := New(s, WithLatency(fixedLatency(time.Millisecond)))
	srv := net.NewNode("server")
	srv.Handle("auth", func(Addr, []byte) ([]byte, error) {
		return nil, &RemoteError{Code: "denied", Msg: "bad password"}
	})
	cli := net.NewNode("client")
	var err error
	s.Go(func() { _, err = cli.Call("server", "auth", nil, 0) })
	s.Run()
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != "denied" {
		t.Fatalf("err = %v, want RemoteError{denied}", err)
	}
}

func TestCapacityQueueing(t *testing.T) {
	// One worker, 100ms service time, 3 concurrent requests over a 1ms
	// link: completions at ~102, ~202, ~302ms.
	s := sim.New(t0, 1)
	net := New(s, WithLatency(fixedLatency(time.Millisecond)))
	srv := net.NewNode("server")
	srv.SetCapacity(1, func() time.Duration { return 100 * time.Millisecond })
	srv.Handle("work", func(Addr, []byte) ([]byte, error) { return []byte("done"), nil })
	var ends []time.Duration
	for i := 0; i < 3; i++ {
		cli := net.NewNode(Addr("c" + string(rune('0'+i))))
		s.Go(func() {
			if _, err := cli.Call("server", "work", nil, 0); err != nil {
				t.Errorf("Call: %v", err)
				return
			}
			ends = append(ends, s.Now().Sub(t0))
		})
	}
	s.Run()
	if len(ends) != 3 {
		t.Fatalf("finished %d, want 3", len(ends))
	}
	want := []time.Duration{102, 202, 302}
	for i, w := range want {
		if ends[i] != w*time.Millisecond {
			t.Fatalf("ends = %v, want %v ms", ends, want)
		}
	}
}

func TestVIPRoundRobin(t *testing.T) {
	s := sim.New(t0, 1)
	net := New(s, WithLatency(fixedLatency(time.Millisecond)))
	hits := map[string]int{}
	var backends []*Node
	for _, name := range []string{"b1", "b2"} {
		name := name
		b := net.NewNode(Addr(name))
		b.Handle("x", func(Addr, []byte) ([]byte, error) {
			hits[name]++
			return []byte(name), nil
		})
		backends = append(backends, b)
	}
	net.NewVIP("farm", backends...)
	cli := net.NewNode("client")
	s.Go(func() {
		for i := 0; i < 10; i++ {
			if _, err := cli.Call("farm", "x", nil, 0); err != nil {
				t.Errorf("Call: %v", err)
			}
		}
	})
	s.Run()
	if hits["b1"] != 5 || hits["b2"] != 5 {
		t.Fatalf("hits = %v, want 5/5 round-robin", hits)
	}
}

func TestSendOneWay(t *testing.T) {
	s := sim.New(t0, 1)
	net := New(s, WithLatency(fixedLatency(5*time.Millisecond)))
	dst := net.NewNode("dst")
	var got []byte
	var at time.Time
	dst.Handle("push", func(_ Addr, p []byte) ([]byte, error) {
		got, at = p, s.Now()
		return nil, nil
	})
	src := net.NewNode("src")
	src.Send("dst", "push", []byte("data"))
	s.Run()
	if !bytes.Equal(got, []byte("data")) {
		t.Fatalf("got %q", got)
	}
	if want := t0.Add(5 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestLossDropsSomeMessages(t *testing.T) {
	s := sim.New(t0, 42)
	net := New(s, WithLatency(fixedLatency(time.Millisecond)), WithLoss(0.5))
	dst := net.NewNode("dst")
	got := 0
	dst.Handle("p", func(Addr, []byte) ([]byte, error) { got++; return nil, nil })
	src := net.NewNode("src")
	for i := 0; i < 200; i++ {
		src.Send("dst", "p", nil)
	}
	s.Run()
	if got == 0 || got == 200 {
		t.Fatalf("delivered %d of 200 with 50%% loss, want strictly between", got)
	}
	st := net.Stats()
	if int(st.Dropped)+got != 200 {
		t.Fatalf("dropped(%d) + delivered(%d) != 200", st.Dropped, got)
	}
	if st.DroppedLoss != st.Dropped || st.DroppedLinkCut != 0 {
		t.Fatalf("drop reasons %+v: all drops here are loss draws", st)
	}
}

func TestHandlerCanCallOut(t *testing.T) {
	// A handler performing its own RPC (manager → manager) must not
	// deadlock the virtual clock.
	s := sim.New(t0, 1)
	net := New(s, WithLatency(fixedLatency(time.Millisecond)))
	backend := net.NewNode("backend")
	backend.Handle("deep", func(Addr, []byte) ([]byte, error) { return []byte("leaf"), nil })
	front := net.NewNode("front")
	front.Handle("entry", func(Addr, []byte) ([]byte, error) {
		return front.Call("backend", "deep", nil, 0)
	})
	cli := net.NewNode("client")
	var resp []byte
	s.Go(func() { resp, _ = cli.Call("front", "entry", nil, 0) })
	s.Run()
	if !bytes.Equal(resp, []byte("leaf")) {
		t.Fatalf("resp = %q, want leaf", resp)
	}
}

func TestDuplicateAddressPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate address")
		}
	}()
	s := sim.New(t0, 1)
	net := New(s)
	net.NewNode("a")
	net.NewNode("a")
}

func TestRemoveNode(t *testing.T) {
	s := sim.New(t0, 1)
	net := New(s, WithLatency(fixedLatency(time.Millisecond)))
	net.NewNode("gone")
	net.RemoveNode("gone")
	cli := net.NewNode("client")
	var err error
	s.Go(func() { _, err = cli.Call("gone", "x", nil, time.Second) })
	s.Run()
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute after removal", err)
	}
}

func TestVIPSkipsDownBackends(t *testing.T) {
	// The VIP models a health-checked load balancer: traffic only goes
	// to live backends, and recovers when a backend comes back.
	s := sim.New(t0, 1)
	net := New(s, WithLatency(fixedLatency(time.Millisecond)))
	hits := map[string]int{}
	var backends []*Node
	for _, name := range []string{"b1", "b2"} {
		name := name
		b := net.NewNode(Addr(name))
		b.Handle("x", func(Addr, []byte) ([]byte, error) {
			hits[name]++
			return nil, nil
		})
		backends = append(backends, b)
	}
	net.NewVIP("farm", backends...)
	backends[0].setUp(false)
	cli := net.NewNode("client")
	s.Go(func() {
		for i := 0; i < 6; i++ {
			if _, err := cli.Call("farm", "x", nil, time.Second); err != nil {
				t.Errorf("call with one backend down: %v", err)
			}
		}
		backends[0].setUp(true)
		for i := 0; i < 6; i++ {
			if _, err := cli.Call("farm", "x", nil, time.Second); err != nil {
				t.Errorf("call after recovery: %v", err)
			}
		}
	})
	s.Run()
	if hits["b1"] == 0 {
		t.Fatal("recovered backend never served again")
	}
	if hits["b2"] < 9 {
		t.Fatalf("healthy backend served %d of 12", hits["b2"])
	}
}

func TestVIPAllBackendsDownTimesOut(t *testing.T) {
	s := sim.New(t0, 1)
	net := New(s, WithLatency(fixedLatency(time.Millisecond)))
	b := net.NewNode("b1")
	b.Handle("x", func(Addr, []byte) ([]byte, error) { return nil, nil })
	net.NewVIP("farm", b)
	b.setUp(false)
	cli := net.NewNode("client")
	var err error
	s.Go(func() { _, err = cli.Call("farm", "x", nil, time.Second) })
	s.Run()
	if !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("err = %v, want timeout with empty healthy pool", err)
	}
}
