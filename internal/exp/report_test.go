package exp

import (
	"os"
	"testing"
	"time"

	"p2pdrm/internal/feedback"
	"p2pdrm/internal/obs"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
)

// The renderers are the repo's human-facing output: EXPERIMENTS.md quotes
// them and `drmsim` prints them. These golden-string tests pin the exact
// bytes for small hand-built fixtures so a formatting change is a
// deliberate diff here, not a silent drift between docs and binary.
// Regenerate with GOLDEN_PRINT=1 (the same switch as the determinism
// goldens).

func checkGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if os.Getenv("GOLDEN_PRINT") != "" {
		t.Logf("%s golden:\n%s<<<end>>>", name, got)
		return
	}
	if got != want {
		t.Errorf("%s moved\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

// histOf builds a snapshot from literal observations.
func histOf(ds ...time.Duration) *obs.HistSnapshot {
	var h obs.Histogram
	for _, d := range ds {
		h.Observe(d)
	}
	s := &obs.HistSnapshot{}
	h.AddTo(s)
	return s
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

var reportStart = time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)

// reportWeekFixture builds a two-hour corpus: hour 0 has three LOGIN1
// samples (median 200ms) at 5 mean users, hour 1 is silent at 2 users.
func reportWeekFixture() *WeekResult {
	corpus := feedback.NewCorpus()
	log := feedback.NewLog()
	log.Record(feedback.Login1, reportStart.Add(10*time.Minute), ms(100), true)
	log.Record(feedback.Login1, reportStart.Add(20*time.Minute), ms(200), true)
	log.Record(feedback.Login1, reportStart.Add(30*time.Minute), ms(300), true)
	corpus.Submit(log)
	corpus.RecordUsers(reportStart.Add(10*time.Minute), 4)
	corpus.RecordUsers(reportStart.Add(40*time.Minute), 6)
	corpus.RecordUsers(reportStart.Add(90*time.Minute), 2)
	return &WeekResult{Corpus: corpus, Start: reportStart, Hours: 2}
}

func TestRenderFig5Golden(t *testing.T) {
	got := RenderFig5(reportWeekFixture(), "Fig 5(a) login protocol", feedback.Login1)
	const want = "Fig 5(a) login protocol — median latency vs. total concurrent users\n" +
		"hour  hod       users  med(LOGIN1)\n" +
		"0     0             5      200.0ms\n" +
		"1     1             2            -\n"
	checkGolden(t, "RenderFig5", got, want)
}

func TestRenderFig6Golden(t *testing.T) {
	corpus := feedback.NewCorpus()
	log := feedback.NewLog()
	// Off-peak (hour 2): 150ms, 250ms. Peak (hour 19): 100, 200, 300ms.
	log.Record(feedback.Login1, reportStart.Add(2*time.Hour), ms(150), true)
	log.Record(feedback.Login1, reportStart.Add(2*time.Hour+time.Minute), ms(250), true)
	log.Record(feedback.Login1, reportStart.Add(19*time.Hour), ms(100), true)
	log.Record(feedback.Login1, reportStart.Add(19*time.Hour+time.Minute), ms(200), true)
	log.Record(feedback.Login1, reportStart.Add(19*time.Hour+2*time.Minute), ms(300), true)
	corpus.Submit(log)
	res := &WeekResult{Corpus: corpus, Start: reportStart, Hours: 24}
	got := RenderFig6(res, feedback.Login1, 400*time.Millisecond, 4)
	const want = "CDF of LOGIN1 latency — peak (18–24h, n=3) vs off-peak (0–18h, n=2)\n" +
		"   latency    P(peak)     P(off)\n" +
		"     0.0ms      0.000      0.000\n" +
		"   133.3ms      0.333      0.000\n" +
		"   266.7ms      0.667      1.000\n" +
		"   400.0ms      1.000      1.000\n" +
		"max |ΔCDF| = 0.333 (paper: curves \"virtually identical\")\n"
	checkGolden(t, "RenderFig6", got, want)
}

func TestRenderFaultFlashGolden(t *testing.T) {
	res := &FaultFlashResult{
		Viewers: 80, Watching: 80, Degraded: 12, Partitioned: 10,
		Median: ms(400), P95: ms(2500), Max: ms(9000), AllWatchingIn: ms(30000),
		TransportRetries: 41, BreakerOpens: 3, BreakerRejects: 17,
		ProtocolRestarts: 2, SessionRetries: 1,
		Artifacts: Artifacts{
			Net: simnet.NetStats{Sent: 4000, Delivered: 3870, Dropped: 130, DroppedLinkCut: 40, DroppedLoss: 90},
			Calls: map[string]svc.CallStats{
				"drm.login1": {Attempts: 90, Retries: 10, Failures: 2, BreakerRejects: 9, Hist: histOf(ms(140), ms(150), ms(600))},
				"drm.login2": {Attempts: 81, Retries: 0, Failures: 1, BreakerRejects: 8, Hist: histOf(ms(145), ms(155))},
			},
			Phases: []Phase{
				{
					Name: "ramp", Start: reportStart, End: reportStart.Add(5 * time.Second),
					Endpoints: map[string]svc.Metrics{
						"um.login1": {Requests: 60, Errors: 0, Hist: histOf(ms(12), ms(15))},
					},
				},
				{
					Name: "partition", Start: reportStart.Add(5 * time.Second), End: reportStart.Add(10 * time.Second),
					Endpoints: map[string]svc.Metrics{
						"um.login1": {Requests: 30, Errors: 4, Hist: histOf(ms(18))},
					},
				},
			},
		},
	}
	got := RenderFaultFlash(res)
	const want = "Flash crowd with injected faults — recovery behaviour\n" +
		"  viewers 80 (degraded links 12, partitioned 10) — watching 80\n" +
		"  arrival→watching: median 400.0ms  p95 2500.0ms  max 9000.0ms  (all watching in 30000.0ms)\n" +
		"  recovery: 41 transport retries, 3 breaker opens (17 fast rejects),\n" +
		"            2 protocol restarts, 1 session retries\n" +
		"  network: 4000 messages sent, 130 dropped (90 lost in transit, 40 on severed links)\n" +
		"  service          attempts  retries     fail  rejects        p50        p95\n" +
		"  drm.login1             90       10        2        9    148.9ms    595.6ms\n" +
		"  drm.login2             81        0        1        8    144.7ms    153.1ms\n" +
		"  per-phase endpoint activity:\n" +
		"  [ramp     ] +0.0ms → +5000.0ms\n" +
		"    um.login1      req     60  err    0  p50     11.9ms  p95     15.1ms\n" +
		"  [partition] +5000.0ms → +10000.0ms\n" +
		"    um.login1      req     30  err    4  p50     18.1ms  p95     18.1ms\n" +
		"(retries cover lost packets; the breaker rides out the manager-farm outage;\n" +
		" protocol restarts re-run round 1 instead of resending one-time round-2 tokens)\n"
	checkGolden(t, "RenderFaultFlash", got, want)
}

func TestRenderPhasesEmpty(t *testing.T) {
	if got := renderPhases(nil); got != "  per-phase endpoint activity:\n" {
		t.Errorf("empty phases rendered %q", got)
	}
}
