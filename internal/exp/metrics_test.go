package exp

import (
	"bytes"
	"encoding/csv"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"p2pdrm/internal/feedback"
	"p2pdrm/internal/svc"
)

// TestWeekCallHistogramsMatchCorpusMedians is the acceptance check for
// the client-side call histograms: the whole-call p50 for the login
// rounds must land on the ≈143 ms medians EXPERIMENTS.md reports from
// the feedback corpus — the histogram is a second, independent
// measurement path (svc.Policy timing + log-bucket quantile vs. client
// feedback log + exact nearest-rank), so agreement pins both.
func TestWeekCallHistogramsMatchCorpusMedians(t *testing.T) {
	res, err := RunWeek(goldenWeekCfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		call  string
		round feedback.Round
	}{
		{"drm.login1", feedback.Login1},
		{"drm.login2", feedback.Login2},
	}
	for _, tc := range cases {
		cs, ok := res.Calls[tc.call]
		if !ok || cs.Hist.Count() == 0 {
			t.Fatalf("%s: no call histogram in WeekResult.Calls", tc.call)
		}
		var exact []time.Duration
		for _, smp := range res.Corpus.Samples() {
			if smp.Round == tc.round && smp.OK {
				exact = append(exact, smp.Latency)
			}
		}
		corpusMed := feedback.Median(exact)
		histMed := cs.Hist.Quantile(0.5)
		if histMed < 120*time.Millisecond || histMed > 170*time.Millisecond {
			t.Errorf("%s: histogram p50 = %v, outside the ≈143ms band", tc.call, histMed)
		}
		rel := math.Abs(float64(histMed-corpusMed)) / float64(corpusMed)
		if rel > 0.07 {
			t.Errorf("%s: histogram p50 %v vs corpus median %v (%.1f%% apart)",
				tc.call, histMed, corpusMed, rel*100)
		}
	}
}

// TestWeekSamplerCadenceInvariant pins the observability layer's core
// contract: changing the metrics sampling period only changes how often
// counters are read, never the simulation itself. Two runs at wildly
// different cadences must produce byte-identical corpus fingerprints.
func TestWeekSamplerCadenceInvariant(t *testing.T) {
	coarse := goldenWeekCfg
	coarse.MetricsEvery = 6 * time.Hour
	fine := goldenWeekCfg
	fine.MetricsEvery = 7 * time.Minute
	a, err := RunWeek(coarse)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWeek(fine)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := weekFingerprint(a), weekFingerprint(b); fa != fb {
		t.Fatalf("sampling cadence perturbed the simulation\n coarse:\n%s\nfine:\n%s", fa, fb)
	}
	if a.Series.Len() >= b.Series.Len() {
		t.Errorf("series lengths: coarse %d, fine %d — finer cadence should sample more rows",
			a.Series.Len(), b.Series.Len())
	}
}

// TestWeekSeriesShape checks that the hourly sampler actually rode the
// sim clock: one row per MetricsEvery interval, monotonic timestamps,
// and the endpoint request columns cumulative (non-decreasing).
func TestWeekSeriesShape(t *testing.T) {
	res, err := RunWeek(goldenWeekCfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Series.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header, rows := recs[0], recs[1:]
	if len(rows) != 24 {
		t.Fatalf("expected 24 hourly rows for a 1-day trace, got %d", len(rows))
	}
	col := slices.Index(header, "ep.drm.login1.req")
	prevReq := -1.0
	var prevT time.Time
	for i, r := range rows {
		at, err := time.Parse(time.RFC3339, r[0])
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && !prevT.Before(at) {
			t.Fatalf("row %d: timestamps not increasing (%v then %v)", i, prevT, at)
		}
		prevT = at
		if col > 0 && r[col] != "" {
			req, err := strconv.ParseFloat(r[col], 64)
			if err != nil {
				t.Fatal(err)
			}
			if req < prevReq {
				t.Fatalf("row %d: cumulative ep.drm.login1.req decreased (%v < %v)", i, req, prevReq)
			}
			prevReq = req
		}
	}
	if prevReq <= 0 {
		t.Error("ep.drm.login1.req never observed in the series")
	}
}

func TestCSVWriters(t *testing.T) {
	eps := map[string]svc.Metrics{
		"um.login1": {Requests: 10, Errors: 1, Hist: histOf(ms(10), ms(20))},
		"cm.join":   {Requests: 5, Hist: histOf(ms(5))},
	}
	var b strings.Builder
	if err := WriteEndpointsCSV(&b, eps); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("endpoints CSV: got %d lines, want header + 2 rows", len(lines))
	}
	if lines[0] != "service,requests,errors,decode_errors,mean_ms,p50_ms,p95_ms,p99_ms" {
		t.Errorf("endpoints CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "cm.join,") || !strings.HasPrefix(lines[2], "um.login1,") {
		t.Errorf("endpoints CSV rows not sorted by service: %q / %q", lines[1], lines[2])
	}

	calls := map[string]svc.CallStats{
		"drm.login1": {Attempts: 3, Hist: histOf(ms(100))},
	}
	b.Reset()
	if err := WriteCallsCSV(&b, calls); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "drm.login1,3,0,0,0,") {
		t.Errorf("calls CSV missing row: %q", b.String())
	}

	phases := []Phase{{
		Name: "ramp", Start: reportStart, End: reportStart.Add(time.Minute),
		Endpoints: map[string]svc.Metrics{"um.login1": {Requests: 2, Hist: histOf(ms(10))}},
	}}
	b.Reset()
	if err := WritePhasesCSV(&b, phases); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ramp,2008-06-23T00:00:00Z,2008-06-23T00:01:00Z,um.login1,2,0,") {
		t.Errorf("phases CSV missing row: %q", b.String())
	}
}

// TestPhaseRecorderBoundaries drives the recorder directly on a tiny
// deployment: two boundaries, traffic only in the second window, so the
// first phase's delta must be empty and the second must carry it all.
func TestPhaseRecorderBoundaries(t *testing.T) {
	res, err := RunFaultFlash(FaultFlashConfig{Seed: 5, Viewers: 20, Spread: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 5 {
		t.Fatalf("expected the 5 scheduled fault phases, got %d", len(res.Phases))
	}
	names := []string{"ramp", "partition", "um-outage", "cm-crash", "healed"}
	var totalReq int64
	for i, ph := range res.Phases {
		if ph.Name != names[i] {
			t.Errorf("phase %d = %q, want %q", i, ph.Name, names[i])
		}
		if i > 0 && ph.Start.Before(res.Phases[i-1].Start) {
			t.Errorf("phase %d starts before its predecessor", i)
		}
		if !ph.End.After(ph.Start) {
			t.Errorf("phase %q: End %v not after Start %v", ph.Name, ph.End, ph.Start)
		}
		for _, m := range ph.Endpoints {
			totalReq += m.Requests
		}
	}
	// The phase deltas partition the scenario: summed, they must equal
	// the final endpoint totals.
	var finalReq int64
	for _, m := range res.Endpoints {
		finalReq += m.Requests
	}
	if totalReq != finalReq {
		t.Errorf("phase deltas sum to %d requests, final snapshot says %d", totalReq, finalReq)
	}
	// And the trace saw the scenario: spans were emitted, including the
	// breaker opening during the manager outage.
	if res.Trace.Len() == 0 {
		t.Fatal("trace ring empty after a faulty scenario")
	}
	kinds := map[string]int{}
	for _, sp := range res.Trace.Spans() {
		kinds[sp.Kind]++
	}
	if kinds["call"] == 0 {
		t.Error("no call spans in trace")
	}
	if kinds["breaker_open"] == 0 {
		t.Error("no breaker_open spans despite the farm outage")
	}
}
