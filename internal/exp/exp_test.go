package exp

import (
	"strings"
	"testing"
	"time"

	"p2pdrm/internal/feedback"
)

// smallWeek runs a heavily scaled-down trace (1 day, light load) so the
// whole pipeline is exercised in CI time.
func smallWeek(t *testing.T) *WeekResult {
	t.Helper()
	res, err := RunWeek(WeekConfig{
		Seed:                1,
		Days:                1,
		Channels:            4,
		Users:               60,
		PeakSessionsPerHour: 60,
		MeanSession:         20 * time.Minute,
		MeanZap:             10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var cachedWeek *WeekResult

func week(t *testing.T) *WeekResult {
	if cachedWeek == nil {
		cachedWeek = smallWeek(t)
	}
	return cachedWeek
}

func TestRunWeekProducesSamplesForAllRounds(t *testing.T) {
	res := week(t)
	if res.Sessions < 100 {
		t.Fatalf("only %d sessions in a day at 60/h peak", res.Sessions)
	}
	if res.LoginFailures > res.Sessions/10 {
		t.Fatalf("login failures %d out of %d sessions", res.LoginFailures, res.Sessions)
	}
	for _, r := range feedback.Rounds {
		pts := res.Corpus.Hourly(r, res.Start, res.Hours)
		total := 0
		for _, p := range pts {
			total += p.Samples
		}
		if total == 0 {
			t.Fatalf("no %s samples in the corpus", r)
		}
	}
	if res.PeakConcurrent < 5 {
		t.Fatalf("peak concurrency %d — workload never ramped", res.PeakConcurrent)
	}
}

func TestWeekDiurnalShapeInUserSeries(t *testing.T) {
	res := week(t)
	pts := res.Corpus.Hourly(feedback.Login1, res.Start, res.Hours)
	// Evening hours (18–23) must carry more users than night (1–5).
	evening, night := 0.0, 0.0
	for _, p := range pts {
		switch hod := p.Hour % 24; {
		case hod >= 18 && hod <= 23:
			evening += p.Users
		case hod >= 1 && hod <= 5:
			night += p.Users
		}
	}
	if evening < 2*night {
		t.Fatalf("evening users %.0f vs night %.0f — diurnal shape lost", evening, night)
	}
}

func TestWeekLatencyFlatDespiteLoad(t *testing.T) {
	// The paper's headline result: protocol latency is essentially
	// independent of concurrent users.
	res := week(t)
	for _, r := range []feedback.Round{feedback.Login2, feedback.Switch2} {
		if corr := res.correlations()[r]; corr > 0.5 {
			t.Fatalf("%s correlation %.3f — latency tracks load, architecture broken", r, corr)
		}
	}
}

func TestWeekFig6CDFsNearlyIdentical(t *testing.T) {
	res := week(t)
	peak, off := res.fig6Split(feedback.Switch1)
	if len(peak) == 0 || len(off) == 0 {
		t.Fatal("missing peak or off-peak samples")
	}
	cp := feedback.CDF(peak, time.Second, 50)
	co := feedback.CDF(off, time.Second, 50)
	if gap := feedback.MaxAbsCDFGap(cp, co); gap > 0.25 {
		t.Fatalf("peak/off-peak CDF gap %.3f — should be nearly identical", gap)
	}
}

func TestRenderers(t *testing.T) {
	res := week(t)
	fig5 := RenderFig5(res, "Fig 5(a)", feedback.Login1, feedback.Login2)
	if !strings.Contains(fig5, "LOGIN1") || !strings.Contains(fig5, "users") {
		t.Fatalf("fig5 render missing headers:\n%s", fig5[:200])
	}
	fig6 := RenderFig6(res, feedback.Join, time.Second, 10)
	if !strings.Contains(fig6, "JOIN") || !strings.Contains(fig6, "ΔCDF") {
		t.Fatal("fig6 render missing content")
	}
	corr := RenderCorrelations(res)
	if !strings.Contains(corr, "Pearson") {
		t.Fatal("correlation render missing content")
	}
}

func TestFlashCrowdBaselineScaling(t *testing.T) {
	// Shape assertion (§I): as correlated arrivals grow past the central
	// License Manager's capacity, its tail latency blows up; the
	// distributed design's end-to-end latency stays roughly flat.
	pts, err := RunFlashSweep(FlashConfig{
		Seed:      1,
		Spread:    5 * time.Second,
		Workers:   1,
		ServiceMS: 10,
	}, []int{50, 600})
	if err != nil {
		t.Fatal(err)
	}
	small, large := pts[0], pts[1]
	tradGrowth := float64(large.Trad.P95) / float64(small.Trad.P95+1)
	drmGrowth := float64(large.DRM.P95) / float64(small.DRM.P95+1)
	if tradGrowth < 3 {
		t.Fatalf("traditional p95 grew only %.1f× (%v → %v) — central server should saturate",
			tradGrowth, small.Trad.P95, large.Trad.P95)
	}
	if drmGrowth > 2.5 {
		t.Fatalf("drm p95 grew %.1f× (%v → %v) — distributed design should stay flat",
			drmGrowth, small.DRM.P95, large.DRM.P95)
	}
	if large.Trad.P95 < large.DRM.P95 {
		t.Fatalf("at %d viewers: trad p95 %v should exceed drm end-to-end p95 %v",
			large.Viewers, large.Trad.P95, large.DRM.P95)
	}
	if large.DRM.Failures > large.Viewers/20 {
		t.Fatalf("drm failures = %d of %d", large.DRM.Failures, large.Viewers)
	}
	if s := RenderFlashSweep(pts); !strings.Contains(s, "viewers") {
		t.Fatal("sweep render missing content")
	}
}

func TestFarmScalingImprovesTailLatency(t *testing.T) {
	pts, err := RunFarmScaling(FarmConfig{
		Seed:      1,
		Viewers:   150,
		Spread:    15 * time.Second,
		FarmSizes: []int{1, 4},
		Workers:   1,
		ServiceMS: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// Four backends must beat one on p95 under the same burst.
	if pts[1].LoginP95 >= pts[0].LoginP95 {
		t.Fatalf("farm=4 login p95 %v not better than farm=1 %v",
			pts[1].LoginP95, pts[0].LoginP95)
	}
	if pts[0].Failures > 0 || pts[1].Failures > 0 {
		t.Fatalf("failures: %d / %d", pts[0].Failures, pts[1].Failures)
	}
	if s := RenderFarm(pts); !strings.Contains(s, "farm") {
		t.Fatal("farm render missing content")
	}
}
