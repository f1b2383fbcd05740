package simnet

import (
	"testing"
	"time"

	"p2pdrm/internal/sim"
)

// TestHandoffBudget bounds how often the run token changes OS goroutine
// on the transport's hot paths. Every handoff is a goroutine switch (and
// with an idle P, an OS thread wake-up), so these are the engine's cost
// model; they are counts, not timings, hence exact on any machine.
func TestHandoffBudget(t *testing.T) {
	const n = 200
	echo := func(_ Addr, p []byte) ([]byte, error) { return p, nil }
	// calls runs n RPCs from one goroutine and returns the handoffs the
	// last n-1 cost (the first one starts the worker pool).
	calls := func(t *testing.T, s *sim.Scheduler, cli *Node) uint64 {
		var spent uint64
		s.Go(func() {
			var warm uint64
			for i := 0; i < n; i++ {
				if _, err := cli.Call("server", "echo", nil, 0); err != nil {
					t.Errorf("Call: %v", err)
				}
				if i == 0 {
					warm = s.Stats().Handoffs
				}
			}
			spent = s.Stats().Handoffs - warm
		})
		s.Run()
		return spent
	}
	cases := []struct {
		name   string
		budget uint64 // handoffs allowed over n-1 operations
		run    func(t *testing.T, s *sim.Scheduler, net *Network) uint64
	}{
		{"one-way Send to a non-blocking handler", 0, func(t *testing.T, s *sim.Scheduler, net *Network) uint64 {
			// Arrival callback, GoArg, handler: one worker runs the lot
			// as plain calls.
			var seen int
			var first, last uint64
			net.NewNode("dst").Handle("push", func(Addr, []byte) ([]byte, error) {
				if seen++; seen == 1 {
					first = s.Stats().Handoffs
				}
				last = s.Stats().Handoffs
				return nil, nil
			})
			src := net.NewNode("src")
			for i := 0; i < n; i++ {
				s.After(time.Duration(i)*time.Millisecond, func() { src.Send("dst", "push", nil) })
			}
			s.Run()
			if seen != n {
				t.Errorf("handler saw %d messages, want %d", seen, n)
			}
			if got := s.Stats().InlineTasks; got != n-1 {
				t.Errorf("InlineTasks = %d, want %d", got, n-1)
			}
			return last - first
		}},
		{"Call without a capacity model", 2 * (n - 1), func(t *testing.T, s *sim.Scheduler, net *Network) uint64 {
			// Caller parks -> worker serves and drives the reply home ->
			// caller: there and back.
			net.NewNode("server").Handle("echo", echo)
			return calls(t, s, net.NewNode("client"))
		}},
		{"Call through SetCapacity", 2 * (n - 1), func(t *testing.T, s *sim.Scheduler, net *Network) uint64 {
			// Acquire finds a free slot and the service Sleep finds its
			// own expiry next: the capacity model adds no switch.
			srv := net.NewNode("server")
			srv.SetCapacity(2, func() time.Duration { return 3 * time.Millisecond })
			srv.Handle("echo", echo)
			return calls(t, s, net.NewNode("client"))
		}},
		{"lone goroutine looping on Sleep", 0, func(t *testing.T, s *sim.Scheduler, net *Network) uint64 {
			var spent uint64
			s.Go(func() {
				s.Sleep(time.Millisecond)
				warm := s.Stats().Handoffs
				for i := 1; i < n; i++ {
					s.Sleep(time.Millisecond)
				}
				spent = s.Stats().Handoffs - warm
			})
			s.Run()
			if got := s.Stats().InlineResumes; got != n {
				t.Errorf("InlineResumes = %d, want %d", got, n)
			}
			return spent
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New(t0, 1)
			net := New(s, WithLatency(fixedLatency(time.Millisecond)))
			if spent := c.run(t, s, net); spent > c.budget {
				t.Fatalf("%d handoffs over %d operations, budget %d (%+v)", spent, n-1, c.budget, s.Stats())
			}
		})
	}
}
