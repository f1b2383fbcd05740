package svc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"p2pdrm/internal/obs"
	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

// This file is the client-side half of the service runtime: a resilience
// decorator over the Transport seam. One Policy instance sits in front of
// a caller's raw attempts and adds
//
//   - per-service deadline defaults (one deadline per attempt),
//   - bounded retries with deterministic exponential backoff plus
//     scheduler-seeded jitter, for idempotent services only, and
//   - a per-destination circuit breaker with half-open probing, so a
//     caller facing a dead farm stops burning full timeouts on every
//     request and instead probes once per cooldown.
//
// Determinism: the policy draws from the scheduler's seeded stream only
// when it actually backs off, and sleeps only between retries. A run in
// which no request fails therefore consumes exactly the same random
// numbers and schedules exactly the same events as a run without the
// policy — golden fingerprints of fault-free runs are unchanged.

// AttemptFunc issues a single attempt of a request with an explicit
// per-attempt deadline. It is the unit the Policy retries.
type AttemptFunc func(dst simnet.Addr, service string, payload []byte, timeout time.Duration) ([]byte, error)

// PlainAttempt returns the attempt function for the unsealed transport.
func PlainAttempt(node *simnet.Node) AttemptFunc {
	return func(dst simnet.Addr, service string, payload []byte, timeout time.Duration) ([]byte, error) {
		return node.Call(dst, service, payload, timeout)
	}
}

// PolicyConfig parameterizes a Policy. The zero value is usable: every
// field has a default.
type PolicyConfig struct {
	// DefaultDeadline bounds one attempt when Deadlines has no entry for
	// the service. Default 10s.
	DefaultDeadline time.Duration
	// Deadlines overrides the per-attempt deadline for specific services.
	Deadlines map[string]time.Duration
	// MaxAttempts is the total attempt budget per call — first try
	// included — for idempotent services. Non-idempotent services always
	// get exactly one attempt. Default 3.
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the wait between retries: before
	// attempt k+1 the policy sleeps Base·2^(k-1), capped at Max, plus a
	// jitter in [0, Base) drawn from the scheduler's seeded stream.
	// Defaults 250ms and 2s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Idempotent classifies services that may be retried. Default
	// wire.IdempotentService.
	Idempotent func(service string) bool
	// BreakerThreshold is the consecutive transport-failure count that
	// opens a destination's circuit. 0 means the default (5); negative
	// disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects calls before
	// admitting a single half-open probe. Default 5s.
	BreakerCooldown time.Duration
	// Trace, when non-nil, receives one span per policy call (plus
	// breaker-open events) at the Transport/Policy seam. Nil — the
	// default — disables tracing with zero allocations and zero
	// randomness on the request path.
	Trace *obs.Trace
}

func (c *PolicyConfig) fill() {
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 250 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.Idempotent == nil {
		c.Idempotent = wire.IdempotentService
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
}

// CallStats are per-service client-side counters, the caller-side mirror
// of the server-side Metrics.
type CallStats struct {
	Attempts       int64 // attempts actually sent
	Retries        int64 // attempts beyond each call's first
	Failures       int64 // calls whose final outcome was a transport failure
	BreakerRejects int64 // calls rejected by an open circuit, no attempt sent
	Overloads      int64 // attempts refused with wire.CodeOverloaded (shed)
	// Hist is the whole-call latency distribution (first attempt through
	// final outcome, retries and backoff included) as the client saw it.
	// Breaker rejects are excluded: a fast local refusal is not a round
	// latency. Nil when the service was never called with attempts.
	Hist *obs.HistSnapshot
}

// Merge adds another snapshot into c (cross-client aggregation).
// Counter and bucket addition commute, so merge order is irrelevant.
func (c *CallStats) Merge(o CallStats) {
	c.Attempts += o.Attempts
	c.Retries += o.Retries
	c.Failures += o.Failures
	c.BreakerRejects += o.BreakerRejects
	c.Overloads += o.Overloads
	if o.Hist != nil {
		if c.Hist == nil {
			c.Hist = &obs.HistSnapshot{}
		}
		c.Hist.Add(o.Hist)
	}
}

// callCounters is the internal atomic form of CallStats.
type callCounters struct {
	attempts       atomic.Int64
	retries        atomic.Int64
	failures       atomic.Int64
	breakerRejects atomic.Int64
	overloads      atomic.Int64
	hist           obs.Histogram
}

// addTo merges the live counters into s.
func (c *callCounters) addTo(s *CallStats) {
	s.Attempts += c.attempts.Load()
	s.Retries += c.retries.Load()
	s.Failures += c.failures.Load()
	s.BreakerRejects += c.breakerRejects.Load()
	s.Overloads += c.overloads.Load()
	if s.Hist == nil {
		s.Hist = &obs.HistSnapshot{}
	}
	c.hist.AddTo(s.Hist)
}

// ExhaustedError reports a call that failed on every allowed attempt.
// It unwraps to the last attempt's error, so errors.Is against
// simnet.ErrRPCTimeout keeps working through it.
type ExhaustedError struct {
	Service  string
	Dest     simnet.Addr
	Attempts int
	Err      error
}

// Error implements the error interface.
func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("svc %s → %s: %d attempts exhausted: %v", e.Service, e.Dest, e.Attempts, e.Err)
}

// Unwrap exposes the last attempt's error.
func (e *ExhaustedError) Unwrap() error { return e.Err }

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is the per-destination circuit state, guarded by Policy.mu.
type breaker struct {
	state    int
	fails    int       // consecutive transport failures while closed
	openedAt time.Time // when the circuit last opened
}

// Policy is the resilience decorator. One instance is shared across all
// of a caller's requests so the breaker sees the destination's full
// failure history.
type Policy struct {
	sched *sim.Scheduler
	cfg   PolicyConfig

	mu       sync.Mutex
	breakers map[simnet.Addr]*breaker
	stats    map[string]*callCounters

	breakerOpens atomic.Int64
}

// NewPolicy builds a Policy on the scheduler whose clock and seeded
// stream drive cooldowns and backoff jitter.
func NewPolicy(sched *sim.Scheduler, cfg PolicyConfig) *Policy {
	cfg.fill()
	return &Policy{
		sched:    sched,
		cfg:      cfg,
		breakers: make(map[simnet.Addr]*breaker),
		stats:    make(map[string]*callCounters),
	}
}

// deadline returns the per-attempt deadline the policy applies to a
// service.
func (p *Policy) deadline(service string) time.Duration {
	if d, ok := p.cfg.Deadlines[service]; ok && d > 0 {
		return d
	}
	return p.cfg.DefaultDeadline
}

// counters returns the per-service counter block, creating it on first
// use.
func (p *Policy) counters(service string) *callCounters {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.stats[service]
	if c == nil {
		c = &callCounters{}
		p.stats[service] = c
	}
	return c
}

// admit decides whether a call to dst may proceed. An open circuit past
// its cooldown transitions to half-open and admits this one call as the
// probe.
func (p *Policy) admit(dst simnet.Addr) bool {
	if p.cfg.BreakerThreshold < 0 {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.breakers[dst]
	if b == nil {
		b = &breaker{}
		p.breakers[dst] = b
	}
	switch b.state {
	case breakerOpen:
		if p.sched.Now().Sub(b.openedAt) >= p.cfg.BreakerCooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	case breakerHalfOpen:
		// A probe is already in flight; fail fast until it reports.
		return false
	}
	return true
}

// report feeds one attempt's outcome into dst's breaker. ok means the
// destination answered — an application-level error still proves the
// path and the far side are alive.
func (p *Policy) report(dst simnet.Addr, ok bool) {
	if p.cfg.BreakerThreshold < 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.breakers[dst]
	if b == nil {
		b = &breaker{}
		p.breakers[dst] = b
	}
	if ok {
		b.state = breakerClosed
		b.fails = 0
		return
	}
	switch b.state {
	case breakerHalfOpen:
		// The probe failed: back to a full cooldown.
		b.state = breakerOpen
		b.openedAt = p.sched.Now()
		p.breakerOpens.Add(1)
		p.traceBreakerOpen(dst, b.openedAt, "half-open probe failed")
	case breakerClosed:
		b.fails++
		if b.fails >= p.cfg.BreakerThreshold {
			b.state = breakerOpen
			b.openedAt = p.sched.Now()
			p.breakerOpens.Add(1)
			p.traceBreakerOpen(dst, b.openedAt, "consecutive transport failures reached threshold")
		}
	}
}

// traceBreakerOpen emits a breaker-open event (no-op without a trace).
func (p *Policy) traceBreakerOpen(dst simnet.Addr, at time.Time, detail string) {
	if tr := p.cfg.Trace; tr != nil {
		tr.Emit(obs.Span{Begin: at, End: at, Kind: obs.KindBreakerOpen, Dest: string(dst), Detail: detail})
	}
}

// backoff returns the wait before attempt n+1: deterministic exponential
// growth plus seeded jitter. The jitter draw is the policy's only use of
// the random stream, and it happens only on this failure path.
func (p *Policy) backoff(n int) time.Duration {
	d := p.cfg.BaseBackoff << (n - 1)
	if d > p.cfg.MaxBackoff || d <= 0 {
		d = p.cfg.MaxBackoff
	}
	return d + time.Duration(p.sched.Float64()*float64(p.cfg.BaseBackoff))
}

// transportFailure reports whether an attempt's error means the request
// or reply may not have arrived (retryable, counts against the breaker).
// Application-level errors — the far side decided — are final.
func transportFailure(err error) bool {
	return errors.Is(err, simnet.ErrRPCTimeout)
}

// overloadShed reports whether an attempt was refused at the far side's
// admission high-water mark. Distinct from both outcomes above: the
// destination answered (alive, breaker stays closed) but the request was
// never processed, so retrying after backoff is safe even for services
// that are not idempotent (one-time round-2 tokens included).
func overloadShed(err error) bool {
	var se *wire.ServiceError
	return errors.As(err, &se) && se.Code == wire.CodeOverloaded
}

// do runs one logical call under the policy: admission through dst's
// breaker, then up to the attempt budget of attempts, each bounded by the
// service's deadline, with backoff between them. Must run in a simulated
// goroutine (it sleeps between retries).
func (p *Policy) do(dst simnet.Addr, service string, payload []byte, attempt AttemptFunc) ([]byte, error) {
	deadline := p.deadline(service)
	maxAttempts := 1
	if p.cfg.Idempotent(service) {
		maxAttempts = p.cfg.MaxAttempts
	}
	st := p.counters(service)
	begin := p.sched.Now()
	// A traced request arrives wearing the causing stage's context. The
	// whole-call span becomes that stage's child, and the envelope is
	// re-stamped so the server parents its span under the call — giving
	// the stage → call → server chain. Untraced (or trace-disabled)
	// payloads pass through byte-identical.
	var tc wire.TraceCtx
	if p.cfg.Trace != nil {
		if c, inner := wire.UnwrapTraced(payload); c.Valid() {
			tc = c
			callSpan := obs.SpanID(c.Trace, c.Span, service, uint64(begin.UnixNano()))
			payload = wire.WrapTraced(wire.TraceCtx{Trace: c.Trace, Span: callSpan}, inner)
		}
	}
	for n := 1; ; n++ {
		if !p.admit(dst) {
			st.breakerRejects.Add(1)
			p.finish(nil, tc, begin, obs.KindReject, dst, service, n-1, "breaker_open", "fast reject, no attempt sent")
			return nil, wire.Errf(wire.CodeBreakerOpen, "svc %s: circuit open for %s", service, dst)
		}
		raw, err := attempt(dst, service, payload, deadline)
		st.attempts.Add(1)
		if n > 1 {
			st.retries.Add(1)
		}
		if overloadShed(err) {
			// Alive but shedding: the breaker sees success, the retry
			// budget applies regardless of idempotency (never processed).
			p.report(dst, true)
			st.overloads.Add(1)
			if n >= p.cfg.MaxAttempts {
				st.failures.Add(1)
				p.finish(st, tc, begin, obs.KindCall, dst, service, n, outcomeOf(err), "retry budget exhausted on shed responses")
				return nil, err
			}
			p.sched.Sleep(p.backoff(n))
			continue
		}
		if err == nil || !transportFailure(err) {
			p.report(dst, true)
			p.finish(st, tc, begin, obs.KindCall, dst, service, n, outcomeOf(err), "")
			return raw, err
		}
		p.report(dst, false)
		if n >= maxAttempts {
			st.failures.Add(1)
			p.finish(st, tc, begin, obs.KindCall, dst, service, n, "timeout", retryCause(maxAttempts))
			if maxAttempts > 1 {
				return nil, &ExhaustedError{Service: service, Dest: dst, Attempts: n, Err: err}
			}
			return nil, err
		}
		p.sched.Sleep(p.backoff(n))
	}
}

// finish records the whole-call latency (when at least one attempt was
// sent) and emits the call's trace span. On the default nil-trace path
// this is two atomic adds and nothing else. A valid tc threads the span
// into its journey's tree: parented under the causing stage, with the
// same ID the wire envelope announced to the server.
func (p *Policy) finish(st *callCounters, tc wire.TraceCtx, begin time.Time, kind string, dst simnet.Addr, service string, attempts int, outcome, detail string) {
	end := p.sched.Now()
	if st != nil {
		st.hist.Observe(end.Sub(begin))
	}
	tr := p.cfg.Trace
	if tr == nil {
		return
	}
	retries := attempts - 1
	if retries < 0 {
		retries = 0
	}
	sp := obs.Span{
		Begin: begin, End: end, Kind: kind,
		Service: service, Dest: string(dst),
		Attempts: attempts, Retries: retries,
		Outcome: outcome, Detail: detail,
	}
	if tc.Valid() {
		sp.Trace = tc.Trace
		sp.Parent = tc.Span
		sp.ID = obs.SpanID(tc.Trace, tc.Span, service, uint64(begin.UnixNano()))
	}
	tr.Emit(sp)
}

// outcomeOf classifies a completed call for the trace: "ok", the
// wire.Code name of an application-level refusal, or "error".
func outcomeOf(err error) string {
	if err == nil {
		return "ok"
	}
	var se *wire.ServiceError
	if errors.As(err, &se) {
		return se.Code.String()
	}
	return "error"
}

// retryCause explains a transport-failure outcome for the trace.
func retryCause(maxAttempts int) string {
	if maxAttempts > 1 {
		return "retry budget exhausted on transport timeouts"
	}
	return "transport timeout; service not retryable (one-time round-2 token)"
}

// Stats snapshots the per-service counters.
func (p *Policy) Stats() map[string]CallStats {
	out := make(map[string]CallStats)
	p.AddTo(out)
	return out
}

// AddTo merges the per-service counters into out — the cross-client
// roll-up: histograms are added straight into out's one aggregate per
// service, never snapshotted per client.
func (p *Policy) AddTo(out map[string]CallStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for name, c := range p.stats {
		t := out[name]
		c.addTo(&t)
		out[name] = t
	}
}

// Retries sums retried attempts across services (counters only; no
// histogram is read).
func (p *Policy) Retries() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, c := range p.stats {
		n += c.retries.Load()
	}
	return n
}

// BreakerOpens counts circuit-open transitions across all destinations.
func (p *Policy) BreakerOpens() int64 { return p.breakerOpens.Load() }

// PolicyTransport adapts a Policy plus a per-attempt sender to the
// Transport interface, so Invoke callers get deadlines, retries, and
// circuit breaking without further plumbing.
type PolicyTransport struct {
	Policy  *Policy
	Attempt AttemptFunc
}

// RoundTrip implements Transport.
func (t PolicyTransport) RoundTrip(dst simnet.Addr, service string, payload []byte) ([]byte, error) {
	return t.Policy.do(dst, service, payload, t.Attempt)
}
