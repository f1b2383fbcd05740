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
	m := rt.metrics("feed")
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
	m := rt.metrics("feed")
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
