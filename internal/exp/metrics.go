package exp

// This file wires internal/obs into the experiment harness: one shared
// system sampler (endpoint + network sources), a cross-client call
// aggregator, a per-phase endpoint recorder for the chaos scenarios,
// and the CSV exporters behind `drmsim -metrics` (`make smoke FIG=…`).
// Everything here reads atomics on scheduled sim events and sorts its
// output keys, so enabling it changes no golden fingerprint.

import (
	"encoding/csv"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/obs"
	"p2pdrm/internal/svc"
)

// newSystemSampler builds a sampler over the deployment-wide state:
// per-endpoint cumulative requests/errors plus per-interval p50/p95
// (from histogram snapshot deltas), and the network message counters.
// Call its Run before driving the scheduler; scenario-specific sources
// (client calls, concurrency) are added by the caller.
func newSystemSampler(sys *core.System, every time.Duration) *obs.Sampler {
	sp := obs.NewSampler(every)
	prev := make(map[string]*obs.HistSnapshot) // per-endpoint last snapshot
	sp.AddSource(func(add func(string, float64)) {
		for name, m := range sys.EndpointTotals() {
			add("ep."+name+".req", float64(m.Requests))
			add("ep."+name+".err", float64(m.Errors))
			d := m.Hist.Sub(prev[name])
			prev[name] = m.Hist
			if d.Count() > 0 {
				add("ep."+name+".p50ms", msFloat(d.Quantile(0.5)))
				add("ep."+name+".p95ms", msFloat(d.Quantile(0.95)))
			}
		}
	})
	sp.AddSource(func(add func(string, float64)) {
		st := sys.Net.Stats()
		add("net.sent", float64(st.Sent))
		add("net.delivered", float64(st.Delivered))
		add("net.dropped", float64(st.Dropped))
		add("net.dropped_linkcut", float64(st.DroppedLinkCut))
		add("net.dropped_loss", float64(st.DroppedLoss))
	})
	return sp
}

// callAggregator accumulates per-service client-side CallStats across a
// scenario's whole client population — sessions still running and
// sessions already finished. Merging is commutative (counter and bucket
// addition), so totals are independent of map iteration order and of
// when each client departs: the aggregate is deterministic.
type callAggregator struct {
	mu   sync.Mutex
	live map[*client.Client]struct{}
	done map[string]svc.CallStats
}

// newCallAggregator creates an empty aggregator.
func newCallAggregator() *callAggregator {
	return &callAggregator{
		live: make(map[*client.Client]struct{}),
		done: make(map[string]svc.CallStats),
	}
}

// Track registers a live client.
func (a *callAggregator) Track(c *client.Client) {
	a.mu.Lock()
	a.live[c] = struct{}{}
	a.mu.Unlock()
}

// Finish folds a departing client's final stats into the accumulator.
func (a *callAggregator) Finish(c *client.Client) {
	a.mu.Lock()
	if _, ok := a.live[c]; ok {
		delete(a.live, c)
		c.Policy().AddTo(a.done)
	}
	a.mu.Unlock()
}

// Totals merges finished and still-live clients into one per-service
// view.
func (a *callAggregator) Totals() map[string]svc.CallStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]svc.CallStats, len(a.done))
	for name, cs := range a.done {
		out[name] = mergeCopy(cs)
	}
	for c := range a.live {
		c.Policy().AddTo(out)
	}
	return out
}

// Source returns a sampler source exposing cumulative client-side
// attempts/retries plus per-interval whole-call p50 per service.
func (a *callAggregator) Source() obs.Source {
	prev := make(map[string]*obs.HistSnapshot)
	return func(add func(string, float64)) {
		for name, cs := range a.Totals() {
			add("call."+name+".attempts", float64(cs.Attempts))
			add("call."+name+".retries", float64(cs.Retries))
			d := cs.Hist.Sub(prev[name])
			prev[name] = cs.Hist
			if d.Count() > 0 {
				add("call."+name+".p50ms", msFloat(d.Quantile(0.5)))
			}
		}
	}
}

// Phase is one named window of a scenario with the endpoint activity
// (snapshot deltas) that happened inside it.
type Phase struct {
	Name      string
	Start     time.Time
	End       time.Time
	Endpoints map[string]svc.Metrics // per-service deltas within the phase
}

// phaseBoundary starts a named phase at an instant; the phase runs
// until the next boundary (or scenario end).
type phaseBoundary struct {
	Name string
	At   time.Time
}

// phaseRecorder captures endpoint snapshots at scheduled boundaries.
type phaseRecorder struct {
	sys    *core.System
	mu     sync.Mutex
	names  []string
	starts []time.Time
	snaps  []map[string]svc.Metrics
}

// recordPhases schedules a snapshot at every boundary. Boundaries at or
// before the current virtual time are captured immediately; call it
// before driving the scheduler. Snapshot events read only atomic
// counters — no randomness, no fingerprint impact.
func recordPhases(sys *core.System, bounds []phaseBoundary) *phaseRecorder {
	pr := &phaseRecorder{sys: sys}
	sorted := append([]phaseBoundary(nil), bounds...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At.Before(sorted[j].At) })
	for _, b := range sorted {
		b := b
		capture := func() {
			pr.mu.Lock()
			pr.names = append(pr.names, b.Name)
			pr.starts = append(pr.starts, pr.sys.Sched.Now())
			pr.snaps = append(pr.snaps, pr.sys.EndpointTotals())
			pr.mu.Unlock()
		}
		if !b.At.After(sys.Sched.Now()) {
			capture()
		} else {
			sys.Sched.At(b.At, capture)
		}
	}
	return pr
}

// Finish closes the last phase at the current virtual time and returns
// every phase's endpoint deltas (services with no traffic omitted).
func (pr *phaseRecorder) Finish() []Phase {
	now := pr.sys.Sched.Now()
	final := pr.sys.EndpointTotals()
	pr.mu.Lock()
	defer pr.mu.Unlock()
	phases := make([]Phase, 0, len(pr.names))
	for i := range pr.names {
		endT, endSnap := now, final
		if i+1 < len(pr.names) {
			endT, endSnap = pr.starts[i+1], pr.snaps[i+1]
		}
		eps := make(map[string]svc.Metrics)
		for name, cur := range endSnap {
			d := cur.Sub(pr.snaps[i][name])
			if d.Requests != 0 || d.Errors != 0 {
				eps[name] = d
			}
		}
		phases = append(phases, Phase{Name: pr.names[i], Start: pr.starts[i], End: endT, Endpoints: eps})
	}
	return phases
}

// sortedMetricNames returns the sorted service names of an endpoint map.
func sortedMetricNames(m map[string]svc.Metrics) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteEndpointsCSV exports a server-side endpoint snapshot, one sorted
// row per service, with mean/p50/p95/p99 milliseconds off the histogram.
func WriteEndpointsCSV(w io.Writer, eps map[string]svc.Metrics) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"service", "requests", "errors", "decode_errors", "mean_ms", "p50_ms", "p95_ms", "p99_ms"}); err != nil {
		return err
	}
	for _, name := range sortedMetricNames(eps) {
		m := eps[name]
		rec := []string{
			name,
			strconv.FormatInt(m.Requests, 10),
			strconv.FormatInt(m.Errors, 10),
			strconv.FormatInt(m.DecodeErrors, 10),
			msField(m.Hist.Mean()),
			msField(m.Hist.Quantile(0.5)),
			msField(m.Hist.Quantile(0.95)),
			msField(m.Hist.Quantile(0.99)),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCallsCSV exports a client-side per-service call snapshot.
func WriteCallsCSV(w io.Writer, calls map[string]svc.CallStats) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"service", "attempts", "retries", "failures", "breaker_rejects", "mean_ms", "p50_ms", "p95_ms", "p99_ms"}); err != nil {
		return err
	}
	for _, name := range sortedCallNames(calls) {
		s := calls[name]
		rec := []string{
			name,
			strconv.FormatInt(s.Attempts, 10),
			strconv.FormatInt(s.Retries, 10),
			strconv.FormatInt(s.Failures, 10),
			strconv.FormatInt(s.BreakerRejects, 10),
			msField(s.Hist.Mean()),
			msField(s.Hist.Quantile(0.5)),
			msField(s.Hist.Quantile(0.95)),
			msField(s.Hist.Quantile(0.99)),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WritePhasesCSV exports per-phase endpoint deltas: phases in time
// order, services sorted within each phase.
func WritePhasesCSV(w io.Writer, phases []Phase) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"phase", "start", "end", "service", "requests", "errors", "p50_ms", "p95_ms"}); err != nil {
		return err
	}
	for _, ph := range phases {
		for _, name := range sortedMetricNames(ph.Endpoints) {
			m := ph.Endpoints[name]
			rec := []string{
				ph.Name,
				ph.Start.UTC().Format(time.RFC3339),
				ph.End.UTC().Format(time.RFC3339),
				name,
				strconv.FormatInt(m.Requests, 10),
				strconv.FormatInt(m.Errors, 10),
				msField(m.Hist.Quantile(0.5)),
				msField(m.Hist.Quantile(0.95)),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func msFloat(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

func msField(d time.Duration) string {
	return strconv.FormatFloat(msFloat(d), 'f', 3, 64)
}

// mergeCopy deep-copies a CallStats so aggregator snapshots never
// alias the accumulator's histograms.
func mergeCopy(o svc.CallStats) svc.CallStats {
	var t svc.CallStats
	t.Merge(o)
	return t
}
