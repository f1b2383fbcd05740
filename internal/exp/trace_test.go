package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/obs"
)

// TestWeekTraceInvariant: arming head-sampled tracing must not move the
// protocol corpus off the untraced golden (tracing observes, never
// perturbs), and the traced cohort must assemble login journeys.
// TestWeekExportsDeterminismGolden pins the traced week's export bytes.
func TestWeekTraceInvariant(t *testing.T) {
	cfg := goldenWeekCfg
	cfg.TraceEvery = 2
	res, err := RunWeek(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := weekFingerprint(res); got != goldenWeek {
		t.Errorf("tracing perturbed the protocol corpus\n got:\n%s\nwant:\n%s", got, goldenWeek)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("traced cohort emitted no spans")
	}
	var cp bytes.Buffer
	if err := WriteCriticalPathCSV(&cp, res.Trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cp.String(), "login") {
		t.Error("critical-path CSV has no login journeys")
	}
}

// TestWeekUntracedAllocatesNoRing: TraceEvery == 0 must mean no ring at
// all, not an empty one — the zero-cost-off contract.
func TestWeekUntracedAllocatesNoRing(t *testing.T) {
	res, err := RunWeek(goldenWeekCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatalf("untraced week allocated a span ring (%d spans)", res.Trace.Len())
	}
}

// TestTracedLoginStageSumMatchesLatency is the acceptance bar for the
// critical path: a traced login's stage durations must tile the journey
// exactly, and the journey must equal the latency the harness measures
// around c.Login() — the breakdown explains all of the time, not most
// of it.
func TestTracedLoginStageSumMatchesLatency(t *testing.T) {
	trace := obs.NewTrace(1024)
	sys, err := core.NewSystem(core.Options{Seed: 5, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterUser("alice@e", "pw"); err != nil {
		t.Fatal(err)
	}
	c, err := sys.NewClient("alice@e", "pw", geo.Addr(100, 1, 1), func(cc *client.Config) {
		cc.TraceID = obs.TraceIDFor(5, "alice@e")
	})
	if err != nil {
		t.Fatal(err)
	}
	var measured time.Duration
	sys.Sched.Go(func() {
		t0 := sys.Sched.Now()
		if err := c.Login(); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		measured = sys.Sched.Now().Sub(t0)
	})
	sys.Sched.RunUntil(sys.Sched.Now().Add(30 * time.Second))
	c.StopWatching()

	paths := obs.CriticalPaths(trace.Spans())
	var login *obs.CriticalPath
	for i := range paths {
		if paths[i].Journey == "login" {
			login = &paths[i]
		}
	}
	if login == nil {
		t.Fatalf("no login critical path among %d spans", trace.Len())
	}
	var sum time.Duration
	names := make([]string, 0, len(login.Stages))
	for _, st := range login.Stages {
		sum += st.Duration
		names = append(names, st.Name)
	}
	if measured == 0 {
		t.Fatal("login never completed")
	}
	const tick = time.Nanosecond // scheduler resolution: one sim tick
	if diff := (sum - measured); diff > tick || diff < -tick {
		t.Errorf("stage sum %v != measured login latency %v (diff %v; stages %v)",
			sum, measured, diff, names)
	}
	if diff := (login.Total - measured); diff > tick || diff < -tick {
		t.Errorf("journey root %v != measured login latency %v", login.Total, measured)
	}
	got := strings.Join(names, ",")
	for _, want := range []string{"redirect", "login1", "login2", "chanlist"} {
		if !strings.Contains(got, want) {
			t.Errorf("critical path missing stage %q (got %s)", want, got)
		}
	}
}

// TestScaleOutTraceSpans pins the satellite coverage on the resharding
// scenario: stale-shard-map login retries leave wrong-shard restart
// spans in the ring, the ring's overflow is real and surfaced through
// the JSONL footer, and traced journeys assembled into trees.
func TestScaleOutTraceSpans(t *testing.T) {
	res, err := RunScaleOut(ScaleOutConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	spans := res.Trace.Spans()
	wrongShard, journeys := 0, 0
	for _, sp := range spans {
		if sp.Kind == obs.KindRestart && strings.Contains(sp.Detail, "wrong shard") {
			wrongShard++
		}
		if sp.Kind == obs.KindJourney {
			journeys++
		}
	}
	if wrongShard == 0 {
		t.Error("no wrong-shard restart spans despite stale-map retries")
	}
	if journeys == 0 {
		t.Error("no journey roots in the ring")
	}
	// The 8k ring overflows in this scenario; exports must say so.
	if res.Trace.Dropped() == 0 {
		t.Skip("ring did not overflow; overflow reporting covered in obs tests")
	}
	var jsonl bytes.Buffer
	if err := res.Trace.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(jsonl.Bytes()), []byte("\n"))
	var footer struct {
		Kind    string `json:"kind"`
		Dropped int64  `json:"dropped"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &footer); err != nil {
		t.Fatal(err)
	}
	if footer.Kind != "trace_footer" || footer.Dropped != res.Trace.Dropped() {
		t.Fatalf("footer %+v does not report the ring's %d dropped spans", footer, res.Trace.Dropped())
	}
	breakdown := RenderJourneyBreakdown(res.Trace)
	if !strings.Contains(breakdown, "dropped by the ring") {
		t.Error("journey breakdown does not surface the drop count")
	}
}
