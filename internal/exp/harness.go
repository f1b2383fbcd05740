package exp

import (
	"math/rand"
	"sync"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/obs"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/workload"
)

// Artifacts is what every single-system scenario hands back beside its
// own figures: the observability bundle `drmsim -metrics/-trace` exports.
// Result types embed it, so res.Net, res.Calls, ... read as before. A
// part the scenario does not observe stays nil.
type Artifacts struct {
	// Net is the network's message counters with the drop breakdown.
	Net simnet.NetStats
	// Phases are the scenario timeline's per-window endpoint deltas.
	Phases []Phase
	// Endpoints is the final server-side snapshot across the deployment.
	Endpoints map[string]svc.Metrics
	// Calls aggregates client-side per-service call stats (histograms
	// included) across every client of the run.
	Calls map[string]svc.CallStats
	// Trace is the span ring shared by every client and service runtime.
	Trace *obs.Trace
	// Series is the sampled system time series.
	Series *obs.Series
}

// drain is how long the scenarios whose sessions retry keep running past
// their deadline, so sessions in flight at the deadline still land.
const drain = 30 * time.Second

// run is the one way a scenario is assembled, observed and closed: the
// deployment with a span ring armed on every runtime, the viewers built
// the common way, the session loop, and the bundle finish returns.
// Scenarios differ in workload, fault schedule and what they measure.
type run struct {
	seed     int64
	sys      *core.System
	start    time.Time
	deadline time.Time        // sessions stop retrying, the sampler stops
	end      time.Time        // finish runs to here
	clients  []*client.Client // in viewer-index order

	trace   *obs.Trace
	calls   *callAggregator
	phases  *phaseRecorder
	sampler *obs.Sampler
}

// newRun builds the deployment for a run of deadline+grace: drain where
// sessions retry, 0 where viewers try once and the deadline is the
// run's hard end. traceCap sizes the span ring armed on every runtime;
// 0 arms none. Span IDs are pure hashes and the trace envelope perturbs
// no timing or RNG draw, so the armed ring leaves every fingerprint
// intact.
func newRun(seed int64, traceCap int, opts core.Options, deadline, grace time.Duration) (*run, error) {
	r := &run{seed: seed, calls: newCallAggregator()}
	if traceCap > 0 {
		r.trace = obs.NewTrace(traceCap)
	}
	opts.Seed, opts.Trace = seed, r.trace
	sys, err := core.NewSystem(opts)
	if err != nil {
		return nil, err
	}
	r.sys, r.start = sys, sys.Sched.Now()
	r.deadline = r.start.Add(deadline)
	r.end = r.deadline.Add(grace)
	return r, nil
}

// observe arms the per-phase endpoint recorder on the scenario's
// timeline and the 5-second system sampler. Both ride scheduled events
// and read atomics: no randomness, no fingerprint impact.
func (r *run) observe(bounds []phaseBoundary) {
	r.phases = recordPhases(r.sys, bounds)
	r.sample(5 * time.Second)
}

// scenarioTraceCap is the span ring of the scenario figures, which
// trace every viewer.
const scenarioTraceCap = 8192

// contentOff is the PacketInterval of a protocol-only run: a year
// between packets, so no content flows within any run while keys, joins
// and renewals still do. Per-packet streaming would dominate such a
// run for no fidelity in the control-plane rounds it measures.
const contentOff = 24 * 365 * time.Hour

// expService draws exponential service times of mean meanMS from src.
// Farms given one source interleave their draws on it in request order:
// a run's simulated goroutines hold one run token.
func expService(src rand.Source, meanMS float64) func() time.Duration {
	rng := rand.New(src)
	var mu sync.Mutex
	return func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return time.Duration(rng.ExpFloat64() * meanMS * float64(time.Millisecond))
	}
}

// viewerAddr places viewer i in the served region.
func viewerAddr(i int) simnet.Addr { return geo.Addr(100, 1+i%40, i+1) }

// viewer registers the account and builds the next client — the n-th
// call builds viewer n at viewerAddr(n) — traced under its own journey ID
// and tracked for the call totals. client.New draws its key pair from
// the deployment's shared seeded reader, so build order is part of a
// scenario's fingerprint; taking the index from the call count keeps it
// the loop order by construction.
func (r *run) viewer(email string, mut func(*client.Config)) (*client.Client, error) {
	if _, err := r.sys.RegisterUser(email, "pw"); err != nil {
		return nil, err
	}
	c, err := r.sys.NewClient(email, "pw", viewerAddr(len(r.clients)), func(cc *client.Config) {
		cc.TraceID = obs.TraceIDFor(r.seed, email)
		if mut != nil {
			mut(cc)
		}
	})
	if err != nil {
		return nil, err
	}
	r.calls.Track(c)
	r.clients = append(r.clients, c)
	return c, nil
}

// sessionHooks are a scenario's view of one viewer's session. Any may be
// nil. elapsed counts from the viewer's arrival.
type sessionHooks struct {
	loggedIn func(elapsed time.Duration) // first successful login
	watching func(elapsed time.Duration) // playback reached; the session ends
	// failed sees every failed login+watch attempt; returning true makes
	// the failure final (no retry).
	failed  func(err error) (final bool)
	retried func() // about to back off and start over
}

// giveUp is the failed hook of a viewer that never retries.
func giveUp(error) bool { return true }

// session is the layer a real player provides: arrive, log in, watch;
// if the whole attempt fails (an outage outlasting the transport
// budget), back off 2 s doubling to 15 s plus up to a second of seeded
// jitter and start over, until the run's deadline.
func (r *run) session(c *client.Client, arrive time.Duration, channel string, h sessionHooks) {
	s := r.sys.Sched
	s.Go(func() {
		s.Sleep(arrive)
		t0 := s.Now()
		backoff := 2 * time.Second
		loggedIn := false
		for {
			err := c.Login()
			if err == nil {
				if !loggedIn && h.loggedIn != nil {
					h.loggedIn(s.Now().Sub(t0))
				}
				loggedIn = true
				err = c.Watch(channel)
			}
			if err == nil {
				if h.watching != nil {
					h.watching(s.Now().Sub(t0))
				}
				return
			}
			if h.failed != nil && h.failed(err) {
				return
			}
			if !s.Now().Before(r.deadline) {
				return
			}
			if h.retried != nil {
				h.retried()
			}
			s.Sleep(backoff + time.Duration(s.Float64()*float64(time.Second)))
			if backoff *= 2; backoff > 15*time.Second {
				backoff = 15 * time.Second
			}
		}
	})
}

// pickViewers draws the addresses of a seeded share of the first n
// viewers.
func pickViewers(rng *rand.Rand, n int, share float64) []simnet.Addr {
	picked := workload.PickSubset(rng, n, int(float64(n)*share))
	addrs := make([]simnet.Addr, len(picked))
	for k, i := range picked {
		addrs[k] = viewerAddr(i)
	}
	return addrs
}

// partition severs a seeded share of the first n viewers from dst for
// dur starting at at, and returns how many it cut off.
func (r *run) partition(rng *rand.Rand, n int, share float64, dst simnet.Addr, at time.Time, dur time.Duration) int {
	addrs := pickViewers(rng, n, share)
	r.sys.Net.Inject(simnet.Fault{Kind: simnet.Partition, At: at, For: dur, A: addrs, B: []simnet.Addr{dst}})
	return len(addrs)
}

// finish drives the run to its end, stops content production and
// returns the bundle.
func (r *run) finish() Artifacts {
	r.sys.Sched.RunUntil(r.end)
	r.sys.StopAll()
	a := Artifacts{
		Net:       r.sys.Net.Stats(),
		Endpoints: r.sys.EndpointTotals(),
		Calls:     r.calls.Totals(),
		Trace:     r.trace,
	}
	if r.phases != nil {
		a.Phases = r.phases.Finish()
	}
	if r.sampler != nil {
		a.Series = r.sampler.Series()
	}
	return a
}
