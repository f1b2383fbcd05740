// Package svc is the typed service runtime every request-serving layer
// registers through: User/Channel/Policy/Redirection Managers, the
// traditional-DRM baseline, and the overlay peers.
//
// It centralizes what each package used to hand-roll around node.Handle —
// frame decode, reply encode, error signalling, and the optional sealed
// transport variant (§IV-G1) — and instruments every endpoint with
// request/error/latency counters, the attachment point for the
// observability work the ROADMAP plans. Handlers speak typed wire
// messages and return *wire.ServiceError for protocol outcomes; the
// runtime owns the bytes.
package svc

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/obs"
	"p2pdrm/internal/sectran"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

// Message is any wire message the codec can serialize.
type Message interface{ Encode() []byte }

// Metrics is a snapshot of one endpoint's counters.
type Metrics struct {
	// Requests counts every frame dispatched to the endpoint (including
	// ones that failed to decode).
	Requests int64
	// Errors counts requests answered with an error (decode failures
	// included).
	Errors int64
	// DecodeErrors counts requests rejected before the handler ran.
	DecodeErrors int64
	// Shed counts requests rejected at the admission high-water mark
	// (wire.CodeOverloaded). Shed requests never reach the handler and
	// are not in Requests/Errors: they measure refused load, not served.
	Shed int64
	// Latency accumulates handler wall time on the simulation clock (the
	// service-time component of a capacity model; network latency is the
	// transport's).
	Latency time.Duration
	// Hist is the handler-latency distribution behind the Latency sum
	// (fixed log-bucket histogram; p50/p95/p99 via Hist.Quantile). Nil
	// for an endpoint that never recorded; all HistSnapshot methods are
	// nil-safe.
	Hist *obs.HistSnapshot
}

// Add merges another snapshot into m (deployment-wide aggregation).
// Histogram merge is bucket-wise addition, so aggregation order does
// not affect the result.
func (m *Metrics) Add(o Metrics) {
	m.Requests += o.Requests
	m.Errors += o.Errors
	m.DecodeErrors += o.DecodeErrors
	m.Shed += o.Shed
	m.Latency += o.Latency
	if o.Hist != nil {
		if m.Hist == nil {
			m.Hist = &obs.HistSnapshot{}
		}
		m.Hist.Add(o.Hist)
	}
}

// Sub returns the delta m − prev. Counters (and histogram buckets) are
// monotonic, so the delta is the traffic between the two snapshots —
// this is what per-phase and per-interval tables are built from.
func (m Metrics) Sub(prev Metrics) Metrics {
	d := Metrics{
		Requests:     m.Requests - prev.Requests,
		Errors:       m.Errors - prev.Errors,
		DecodeErrors: m.DecodeErrors - prev.DecodeErrors,
		Shed:         m.Shed - prev.Shed,
		Latency:      m.Latency - prev.Latency,
	}
	if m.Hist != nil || prev.Hist != nil {
		d.Hist = m.Hist.Sub(prev.Hist)
	}
	return d
}

// endpoint is one registered service with its counters.
type endpoint struct {
	service string
	raw     simnet.Handler // unsealed form, wrapped again by EnableSealed

	requests     atomic.Int64
	errors       atomic.Int64
	decodeErrors atomic.Int64
	latencyNanos atomic.Int64
	hist         obs.Histogram

	// Shedding state: highWater 0 disables; inflight counts requests
	// admitted but not yet finished (including time queued for a worker).
	shed      atomic.Int64
	inflight  atomic.Int64
	highWater atomic.Int64
}

func (ep *endpoint) observe(start, end time.Time, err error) {
	ep.requests.Add(1)
	ep.latencyNanos.Add(end.Sub(start).Nanoseconds())
	ep.hist.Observe(end.Sub(start))
	if err != nil {
		ep.errors.Add(1)
	}
	if ep.highWater.Load() > 0 {
		ep.inflight.Add(-1)
	}
}

// addTo merges the endpoint's live counters into m.
func (ep *endpoint) addTo(m *Metrics) {
	m.Requests += ep.requests.Load()
	m.Errors += ep.errors.Load()
	m.DecodeErrors += ep.decodeErrors.Load()
	m.Shed += ep.shed.Load()
	m.Latency += time.Duration(ep.latencyNanos.Load())
	if m.Hist == nil {
		m.Hist = &obs.HistSnapshot{}
	}
	ep.hist.AddTo(m.Hist)
}

// Runtime owns every endpoint registered on one node. It is the only
// place in the tree (outside simnet itself) that calls node.Handle.
type Runtime struct {
	node *simnet.Node

	// trace, when set, receives a server-side span for every request that
	// arrives wearing a wire trace envelope (see SetTrace).
	trace atomic.Pointer[obs.Trace]

	mu        sync.Mutex
	endpoints map[string]*endpoint
	order     []string
	shedding  bool // admission hook installed on the node
}

// NewRuntime creates the runtime for a node.
func NewRuntime(node *simnet.Node) *Runtime {
	return &Runtime{node: node, endpoints: make(map[string]*endpoint)}
}

// Node returns the underlying simnet node.
func (r *Runtime) Node() *simnet.Node { return r.node }

// SetTrace attaches (or, with nil, detaches) the causal-trace ring.
// Traced requests carry a wire.TraceCtx envelope ahead of the protocol
// frame; when a ring is attached the runtime emits one KindServer span
// per such request — the handler-side interval, parented under the
// caller's span — and one KindShed span per traced admission refusal.
// Untraced requests cost one bounded 4-byte compare; with no ring
// attached the whole path is byte-for-byte the pre-tracing one.
func (r *Runtime) SetTrace(t *obs.Trace) { r.trace.Store(t) }

// unwrapTrace strips a trace envelope (always — a traced client may talk
// to a runtime with no ring attached, and the frame decoder must never
// see the envelope) and reports the context only when a ring is armed.
func (r *Runtime) unwrapTrace(payload []byte) (wire.TraceCtx, *obs.Trace, []byte) {
	tc, inner := wire.UnwrapTraced(payload)
	tr := r.trace.Load()
	if tr == nil {
		return wire.TraceCtx{}, nil, inner
	}
	return tc, tr, inner
}

// serverSpan emits the handler-side span for one traced request.
func (r *Runtime) serverSpan(tr *obs.Trace, tc wire.TraceCtx, service string, start, end time.Time, err error) {
	if tr == nil || !tc.Valid() {
		return
	}
	tr.Emit(obs.Span{
		Trace:  tc.Trace,
		Parent: tc.Span,
		ID:     obs.SpanID(tc.Trace, tc.Span, service, uint64(start.UnixNano())),
		Begin:  start, End: end,
		Kind: obs.KindServer, Service: service,
		Node:    string(r.node.Addr()),
		Outcome: outcomeOf(err),
	})
}

// install records an endpoint and registers its raw handler. Registering
// a service twice replaces the handler (matching node.Handle semantics)
// but keeps the counters.
func (r *Runtime) install(service string, raw simnet.Handler) *endpoint {
	r.mu.Lock()
	ep, ok := r.endpoints[service]
	if !ok {
		ep = &endpoint{service: service}
		r.endpoints[service] = ep
		r.order = append(r.order, service)
	}
	ep.raw = raw
	r.mu.Unlock()
	r.node.Handle(service, raw)
	return ep
}

// metrics returns one endpoint's counters (zero for unknown services).
func (r *Runtime) metrics(service string) Metrics {
	r.mu.Lock()
	ep := r.endpoints[service]
	r.mu.Unlock()
	var m Metrics
	if ep != nil {
		ep.addTo(&m)
	}
	return m
}

// Snapshot returns every endpoint's counters keyed by service name.
func (r *Runtime) Snapshot() map[string]Metrics {
	out := make(map[string]Metrics)
	r.AddTo(out)
	return out
}

// AddTo merges every endpoint's live counters into out, keyed by service
// name — the deployment-wide roll-up: histograms are added straight into
// out's one aggregate per service, never snapshotted per runtime.
func (r *Runtime) AddTo(out map[string]Metrics) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for service, ep := range r.endpoints {
		m := out[service]
		ep.addTo(&m)
		out[service] = m
	}
}

// SetShedding arms load shedding on an endpoint: once highWater requests
// are admitted but unfinished (queued for a worker or being served), new
// arrivals are refused at admission with wire.CodeOverloaded — before
// they occupy a worker or burn service time — so the caller's breaker
// sees overload distinctly from outage. highWater 0 disarms. Arm before
// traffic flows; the in-flight count starts when shedding is armed.
//
// Sealed-transport variants (service+sectran.Suffix) bypass the mark:
// they register at the node layer, not as endpoints, so admission does
// not know them. Shed what you meter.
func (r *Runtime) SetShedding(service string, highWater int) error {
	r.mu.Lock()
	ep := r.endpoints[service]
	install := !r.shedding
	r.shedding = true
	r.mu.Unlock()
	if ep == nil {
		return fmt.Errorf("svc: SetShedding(%q): service not registered", service)
	}
	ep.highWater.Store(int64(highWater))
	if install {
		r.node.SetAdmission(r.admit)
	}
	return nil
}

// admit is the node's admission check (simnet runs it before the
// capacity queue). Services without an armed high-water mark pass. A
// refused request that carries a trace envelope leaves a KindShed span —
// the refusal is part of the viewer's critical path even though no
// handler ever ran.
func (r *Runtime) admit(service string, from simnet.Addr, payload []byte) error {
	r.mu.Lock()
	ep := r.endpoints[service]
	r.mu.Unlock()
	if ep == nil {
		return nil
	}
	hw := ep.highWater.Load()
	if hw <= 0 {
		return nil
	}
	if ep.inflight.Load() >= hw {
		ep.shed.Add(1)
		if tr := r.trace.Load(); tr != nil {
			if tc, _ := wire.UnwrapTraced(payload); tc.Valid() {
				now := r.node.Scheduler().Now()
				tr.Emit(obs.Span{
					Trace:  tc.Trace,
					Parent: tc.Span,
					ID:     obs.SpanID(tc.Trace, tc.Span, service+"/shed", uint64(now.UnixNano())),
					Begin:  now, End: now,
					Kind: obs.KindShed, Service: service,
					Node:    string(r.node.Addr()),
					Outcome: wire.CodeOverloaded.String(),
					Detail:  fmt.Sprintf("from %s at high-water %d", from, hw),
				})
			}
		}
		return wire.Errf(wire.CodeOverloaded, "%s shedding at high-water %d", service, hw)
	}
	ep.inflight.Add(1)
	return nil
}

// Register installs a typed request/response endpoint: dec parses the
// request frame, h produces the reply message or a *wire.ServiceError.
// Undecodable frames are answered with wire.CodeMalformed before the
// handler runs.
func Register[Req any, Resp Message](r *Runtime, service string, dec func([]byte) (Req, error), h func(from simnet.Addr, req Req) (Resp, error)) {
	var ep *endpoint
	ep = r.install(service, func(from simnet.Addr, payload []byte) ([]byte, error) {
		sched := r.node.Scheduler()
		start := sched.Now()
		tc, tr, payload := r.unwrapTrace(payload)
		req, err := dec(payload)
		if err != nil {
			ep.decodeErrors.Add(1)
			serr := wire.Errf(wire.CodeMalformed, "malformed %s: %v", service, err)
			end := sched.Now()
			ep.observe(start, end, serr)
			r.serverSpan(tr, tc, service, start, end, serr)
			return nil, serr
		}
		resp, herr := h(from, req)
		end := sched.Now()
		ep.observe(start, end, herr)
		r.serverSpan(tr, tc, service, start, end, herr)
		if herr != nil {
			return nil, herr
		}
		return resp.Encode(), nil
	})
}

// RegisterOneWay installs a fire-and-forget endpoint (overlay pushes,
// management feeds): the transport discards replies and errors, so
// undecodable frames are counted and dropped.
func RegisterOneWay[Req any](r *Runtime, service string, dec func([]byte) (Req, error), h func(from simnet.Addr, req Req)) {
	var ep *endpoint
	ep = r.install(service, func(from simnet.Addr, payload []byte) ([]byte, error) {
		sched := r.node.Scheduler()
		start := sched.Now()
		tc, tr, payload := r.unwrapTrace(payload)
		req, err := dec(payload)
		if err != nil {
			ep.decodeErrors.Add(1)
			end := sched.Now()
			ep.observe(start, end, err)
			r.serverSpan(tr, tc, service, start, end, err)
			return nil, nil
		}
		h(from, req)
		end := sched.Now()
		ep.observe(start, end, nil)
		r.serverSpan(tr, tc, service, start, end, nil)
		return nil, nil
	})
}

// RegisterRaw installs an untyped handler. It exists for transport-level
// endpoints (benchmark echoes, sealed-envelope taps in tests) that have
// no wire message; protocol endpoints use Register/RegisterOneWay.
func RegisterRaw(r *Runtime, service string, h simnet.Handler) {
	var ep *endpoint
	ep = r.install(service, func(from simnet.Addr, payload []byte) ([]byte, error) {
		sched := r.node.Scheduler()
		start := sched.Now()
		tc, tr, payload := r.unwrapTrace(payload)
		resp, err := h(from, payload)
		end := sched.Now()
		ep.observe(start, end, err)
		r.serverSpan(tr, tc, service, start, end, err)
		return resp, err
	})
}

// EnableSealed registers the sealed-transport variant (§IV-G1) of already
// registered services under service+sectran.Suffix. Sealed requests run
// through the same endpoint, so its counters cover both transports.
func (r *Runtime) EnableSealed(kp *cryptoutil.KeyPair, rng io.Reader, services ...string) error {
	for _, service := range services {
		r.mu.Lock()
		ep := r.endpoints[service]
		r.mu.Unlock()
		if ep == nil {
			return fmt.Errorf("svc: EnableSealed(%q): service not registered", service)
		}
		r.node.Handle(service+sectran.Suffix, sectran.WrapHandler(kp, rng, ep.raw))
	}
	return nil
}
