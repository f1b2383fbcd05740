package svc

import (
	"errors"
	"testing"
	"time"

	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

// scriptedAttempt returns an AttemptFunc that fails with ErrRPCTimeout
// for the first `failures` attempts and then succeeds, recording every
// per-attempt deadline it was handed.
func scriptedAttempt(failures int, deadlines *[]time.Duration) AttemptFunc {
	n := 0
	return func(dst simnet.Addr, service string, payload []byte, timeout time.Duration) ([]byte, error) {
		if deadlines != nil {
			*deadlines = append(*deadlines, timeout)
		}
		n++
		if n <= failures {
			return nil, simnet.ErrRPCTimeout
		}
		return []byte("ok"), nil
	}
}

func TestPolicyRetriesIdempotentUntilSuccess(t *testing.T) {
	s := sim.New(t0, 1)
	p := NewPolicy(s, PolicyConfig{MaxAttempts: 3})
	var resp []byte
	var err error
	s.Go(func() { resp, err = p.do("um.vip", wire.SvcLogin1, nil, scriptedAttempt(2, nil)) })
	s.Run()
	if err != nil || string(resp) != "ok" {
		t.Fatalf("resp=%q err=%v", resp, err)
	}
	st := p.Stats()[wire.SvcLogin1]
	if st.Attempts != 3 || st.Retries != 2 || st.Failures != 0 {
		t.Fatalf("stats = %+v, want 3 attempts / 2 retries / 0 failures", st)
	}
	// A second service retries once more; the counters-only read and the
	// roll-up into an existing aggregate agree with the snapshots.
	s.Go(func() { _, _ = p.do("cm.vip", wire.SvcSwitch1, nil, scriptedAttempt(1, nil)) })
	s.Run()
	if got := p.Retries(); got != 3 {
		t.Fatalf("Retries() = %d, want 3 across both services", got)
	}
	agg := p.Stats()
	p.AddTo(agg)
	if st := agg[wire.SvcLogin1]; st.Attempts != 6 || st.Hist.Count() != 2 {
		t.Fatalf("AddTo into a snapshot = %+v (hist %d), want the counters doubled", st, st.Hist.Count())
	}
}

func TestPolicyNonIdempotentNeverRetried(t *testing.T) {
	for _, service := range []string{wire.SvcLogin2, wire.SvcSwitch2} {
		s := sim.New(t0, 1)
		p := NewPolicy(s, PolicyConfig{MaxAttempts: 5})
		attempts := 0
		var err error
		s.Go(func() {
			_, err = p.do("um.vip", service, nil, func(simnet.Addr, string, []byte, time.Duration) ([]byte, error) {
				attempts++
				return nil, simnet.ErrRPCTimeout
			})
		})
		s.Run()
		if attempts != 1 {
			t.Fatalf("%s: %d attempts, want exactly 1 (one-time token must not be resent)", service, attempts)
		}
		// The single-attempt failure surfaces raw, not as "exhausted
		// retries" — no retries were ever allowed.
		var ex *ExhaustedError
		if errors.As(err, &ex) {
			t.Fatalf("%s: error wrapped in ExhaustedError although retries were disabled: %v", service, err)
		}
		if !errors.Is(err, simnet.ErrRPCTimeout) {
			t.Fatalf("%s: err = %v, want ErrRPCTimeout", service, err)
		}
	}
}

func TestPolicyExhaustedErrorWrapping(t *testing.T) {
	s := sim.New(t0, 1)
	p := NewPolicy(s, PolicyConfig{MaxAttempts: 3, BreakerThreshold: -1})
	var err error
	s.Go(func() { _, err = p.do("um.vip", wire.SvcLogin1, nil, scriptedAttempt(99, nil)) })
	s.Run()
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *ExhaustedError", err)
	}
	if ex.Attempts != 3 || ex.Service != wire.SvcLogin1 || ex.Dest != "um.vip" {
		t.Fatalf("exhausted = %+v", ex)
	}
	// The wrapper stays transparent to the timeout sentinel.
	if !errors.Is(err, simnet.ErrRPCTimeout) {
		t.Fatalf("errors.Is(err, ErrRPCTimeout) = false through ExhaustedError: %v", err)
	}
	st := p.Stats()[wire.SvcLogin1]
	if st.Failures != 1 {
		t.Fatalf("failures = %d, want 1", st.Failures)
	}
}

func TestPolicyApplicationErrorNotRetried(t *testing.T) {
	s := sim.New(t0, 1)
	p := NewPolicy(s, PolicyConfig{MaxAttempts: 3, BreakerThreshold: 1})
	appErr := wire.Errf(wire.CodeDenied, "bad password")
	attempts := 0
	var err error
	s.Go(func() {
		_, err = p.do("um.vip", wire.SvcLogin1, nil, func(simnet.Addr, string, []byte, time.Duration) ([]byte, error) {
			attempts++
			return nil, appErr
		})
	})
	s.Run()
	if attempts != 1 {
		t.Fatalf("%d attempts, want 1 — an application-level verdict is final", attempts)
	}
	if !errors.Is(err, appErr) {
		t.Fatalf("err = %v, want the handler's error untouched", err)
	}
	// The destination answered, so even at threshold 1 the breaker must
	// not have tripped.
	if p.BreakerOpen("um.vip") {
		t.Fatal("application error tripped the breaker")
	}
}

func TestPolicyBreakerOpensRejectsAndProbes(t *testing.T) {
	s := sim.New(t0, 1)
	cooldown := 5 * time.Second
	p := NewPolicy(s, PolicyConfig{
		MaxAttempts:      1, // isolate breaker behaviour from retries
		Idempotent:       func(string) bool { return true },
		BreakerThreshold: 2,
		BreakerCooldown:  cooldown,
	})
	fail := func(simnet.Addr, string, []byte, time.Duration) ([]byte, error) {
		return nil, simnet.ErrRPCTimeout
	}
	attempted := 0
	succeed := func(simnet.Addr, string, []byte, time.Duration) ([]byte, error) {
		attempted++
		return []byte("ok"), nil
	}
	s.Go(func() {
		// Two consecutive transport failures open the circuit.
		p.do("cm.vip", wire.SvcSwitch1, nil, fail)
		p.do("cm.vip", wire.SvcSwitch1, nil, fail)
		if !p.BreakerOpen("cm.vip") {
			t.Error("breaker still closed after reaching the threshold")
		}
		if p.BreakerOpens() != 1 {
			t.Errorf("BreakerOpens = %d, want 1", p.BreakerOpens())
		}

		// Inside the cooldown: fast rejection, no attempt sent, typed code.
		_, err := p.do("cm.vip", wire.SvcSwitch1, nil, succeed)
		var se *wire.ServiceError
		if !errors.As(err, &se) || se.Code != wire.CodeBreakerOpen {
			t.Errorf("reject err = %v, want ServiceError{breaker_open}", err)
		}
		if attempted != 0 {
			t.Errorf("open circuit still sent %d attempts", attempted)
		}

		// Another destination is unaffected: breakers are per-destination.
		if _, err := p.do("cm2.vip", wire.SvcSwitch1, nil, succeed); err != nil {
			t.Errorf("other destination rejected: %v", err)
		}
		attempted = 0

		// Past the cooldown the next call is admitted as the half-open
		// probe; its success closes the circuit again.
		s.Sleep(cooldown)
		if _, err := p.do("cm.vip", wire.SvcSwitch1, nil, succeed); err != nil {
			t.Errorf("probe rejected: %v", err)
		}
		if attempted != 1 {
			t.Errorf("probe sent %d attempts, want 1", attempted)
		}
		if p.BreakerOpen("cm.vip") {
			t.Error("breaker still open after successful probe")
		}

		// Re-open, then fail the probe: straight back to open with a fresh
		// cooldown — one failure, not threshold-many.
		p.do("cm.vip", wire.SvcSwitch1, nil, fail)
		p.do("cm.vip", wire.SvcSwitch1, nil, fail)
		s.Sleep(cooldown)
		p.do("cm.vip", wire.SvcSwitch1, nil, fail) // failed probe
		if !p.BreakerOpen("cm.vip") {
			t.Error("breaker closed after failed probe")
		}
		_, err = p.do("cm.vip", wire.SvcSwitch1, nil, succeed)
		if !errors.As(err, &se) || se.Code != wire.CodeBreakerOpen {
			t.Errorf("post-failed-probe err = %v, want ServiceError{breaker_open}", err)
		}
	})
	s.Run()
	st := p.Stats()[wire.SvcSwitch1]
	if st.BreakerRejects != 2 {
		t.Fatalf("breaker rejects = %d, want 2", st.BreakerRejects)
	}
}

func TestPolicyPerServiceDeadlines(t *testing.T) {
	s := sim.New(t0, 1)
	p := NewPolicy(s, PolicyConfig{
		DefaultDeadline: 10 * time.Second,
		Deadlines:       map[string]time.Duration{wire.SvcJoin: 2 * time.Second},
		MaxAttempts:     1,
	})
	if got := p.deadline(wire.SvcJoin); got != 2*time.Second {
		t.Fatalf("Deadline(join) = %v", got)
	}
	if got := p.deadline(wire.SvcLogin1); got != 10*time.Second {
		t.Fatalf("Deadline(login1) = %v", got)
	}
	var seen []time.Duration
	s.Go(func() {
		p.do("root", wire.SvcJoin, nil, scriptedAttempt(0, &seen))
		p.do("um.vip", wire.SvcLogin1, nil, scriptedAttempt(0, &seen))
	})
	s.Run()
	if len(seen) != 2 || seen[0] != 2*time.Second || seen[1] != 10*time.Second {
		t.Fatalf("per-attempt deadlines = %v", seen)
	}
}

// TestPolicyBackoffDeterministic pins the retry schedule to the seed:
// identical seeds walk identical backoff-plus-jitter sequences, and a
// different seed diverges (so the jitter really is drawn from the
// scheduler's stream, not a constant).
func TestPolicyBackoffDeterministic(t *testing.T) {
	run := func(seed int64) time.Duration {
		s := sim.New(t0, seed)
		p := NewPolicy(s, PolicyConfig{MaxAttempts: 4, BreakerThreshold: -1})
		var done time.Time
		s.Go(func() {
			p.do("um.vip", wire.SvcLogin1, nil, scriptedAttempt(3, nil))
			done = s.Now()
		})
		s.Run()
		return done.Sub(t0)
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed, different retry schedules: %v vs %v", a, b)
	}
	if c := run(8); c == a {
		t.Fatalf("different seeds produced identical jitter (%v) — jitter path dead", c)
	}
}

// TestPolicySuccessPathDrawsNoRandomness is the determinism guarantee
// the golden fingerprints rely on: a call that succeeds first try must
// not consume the scheduler's random stream.
func TestPolicySuccessPathDrawsNoRandomness(t *testing.T) {
	s := sim.New(t0, 3)
	p := NewPolicy(s, PolicyConfig{})
	s.Go(func() {
		for i := 0; i < 10; i++ {
			p.do("um.vip", wire.SvcLogin1, nil, scriptedAttempt(0, nil))
		}
	})
	s.Run()
	want := sim.New(t0, 3).Float64()
	if got := s.Float64(); got != want {
		t.Fatalf("success path consumed randomness: next draw %v, want %v", got, want)
	}
}

// BreakerOpen reports whether dst's circuit is currently refusing calls.
func (p *Policy) BreakerOpen(dst simnet.Addr) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.breakers[dst]
	return b != nil && b.state != breakerClosed
}
