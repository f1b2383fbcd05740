package exp

import (
	"fmt"
	"strings"
	"time"

	"p2pdrm/internal/feedback"
)

// RenderFig5 prints one Fig. 5 panel as a text series: per-hour median
// latencies for the given rounds next to concurrent users.
func RenderFig5(res *WeekResult, title string, rounds ...feedback.Round) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — median latency vs. total concurrent users\n", title)
	fmt.Fprintf(&b, "%-5s %-6s %8s", "hour", "hod", "users")
	series := make([][]feedback.HourlyPoint, len(rounds))
	for i, r := range rounds {
		series[i] = res.Corpus.Hourly(r, res.Start, res.Hours)
		fmt.Fprintf(&b, " %12s", "med("+r.String()+")")
	}
	b.WriteString("\n")
	for h := 0; h < res.Hours; h++ {
		users := 0.0
		if len(series) > 0 {
			users = series[0][h].Users
		}
		fmt.Fprintf(&b, "%-5d %-6d %8.0f", h, h%24, users)
		for i := range rounds {
			p := series[i][h]
			if p.Samples == 0 {
				fmt.Fprintf(&b, " %12s", "-")
			} else {
				fmt.Fprintf(&b, " %12s", fmtMS(p.Median))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderFig6 prints one Fig. 6 panel: the latency CDFs during peak
// (18–24h) vs. off-peak (0–18h) hours, with the max vertical gap.
// maxLat ≤ 0 auto-scales the x-axis to the data's p99.9.
func RenderFig6(res *WeekResult, round feedback.Round, maxLat time.Duration, steps int) string {
	peak, off := res.fig6Split(round)
	if maxLat <= 0 {
		maxLat = feedback.Quantile(peak, 0.999)
		if q := feedback.Quantile(off, 0.999); q > maxLat {
			maxLat = q
		}
		maxLat = maxLat * 12 / 10
		if maxLat <= 0 {
			maxLat = time.Second
		}
	}
	cdfPeak := feedback.CDF(peak, maxLat, steps)
	cdfOff := feedback.CDF(off, maxLat, steps)
	var b strings.Builder
	fmt.Fprintf(&b, "CDF of %s latency — peak (18–24h, n=%d) vs off-peak (0–18h, n=%d)\n",
		round, len(peak), len(off))
	fmt.Fprintf(&b, "%10s %10s %10s\n", "latency", "P(peak)", "P(off)")
	for i := range cdfPeak {
		fmt.Fprintf(&b, "%10s %10.3f %10.3f\n", fmtMS(cdfPeak[i].X), cdfPeak[i].P, cdfOff[i].P)
	}
	fmt.Fprintf(&b, "max |ΔCDF| = %.3f (paper: curves \"virtually identical\")\n",
		feedback.MaxAbsCDFGap(cdfPeak, cdfOff))
	return b.String()
}

// RenderCorrelations prints the Pearson coefficients per round against
// the paper's reported ranges.
func RenderCorrelations(res *WeekResult) string {
	var b strings.Builder
	b.WriteString("Pearson r (per-hour median latency vs. concurrent users)\n")
	corr := res.correlations()
	paper := map[feedback.Round]string{
		feedback.Login1:  "-0.03…0.08",
		feedback.Login2:  "-0.03…0.08",
		feedback.Switch1: "-0.03…0.08",
		feedback.Switch2: "-0.03…0.08",
		feedback.Join:    "≈0.13",
	}
	for _, r := range feedback.Rounds {
		fmt.Fprintf(&b, "  %-8s r = %+.3f   (paper: %s)\n", r, corr[r], paper[r])
	}
	return b.String()
}

// RenderFlashSweep prints the scaling series: baseline vs. DRM tail
// latency as the crowd grows.
func RenderFlashSweep(points []FlashResult) string {
	var b strings.Builder
	b.WriteString("Flash-crowd scaling — central License Manager vs. this design\n")
	fmt.Fprintf(&b, "%8s | %12s %12s %7s | %12s %12s %7s\n",
		"viewers", "trad-median", "trad-p95", "trad-q", "drm-median", "drm-p95", "drm-q")
	for _, p := range points {
		fmt.Fprintf(&b, "%8d | %12s %12s %7d | %12s %12s %7d\n",
			p.Viewers,
			fmtMS(p.Trad.Median), fmtMS(p.Trad.P95), p.Trad.MaxQueue,
			fmtMS(p.DRM.Median), fmtMS(p.DRM.P95), p.DRM.MaxQueue)
	}
	b.WriteString("(drm latency is the full arrival→watching pipeline: login+switch+join;\n")
	b.WriteString(" trad latency is the single license fetch — yet its tail grows with the crowd)\n")
	return b.String()
}

// RenderFaultFlash prints the resilience scenario: outcome, latency
// shape, and how recovery was split across the resilience layers.
func RenderFaultFlash(res *FaultFlashResult) string {
	var b strings.Builder
	b.WriteString("Flash crowd with injected faults — recovery behaviour\n")
	fmt.Fprintf(&b, "  viewers %d (degraded links %d, partitioned %d) — watching %d\n",
		res.Viewers, res.Degraded, res.Partitioned, res.Watching)
	fmt.Fprintf(&b, "  arrival→watching: median %s  p95 %s  max %s  (all watching in %s)\n",
		fmtMS(res.Median), fmtMS(res.P95), fmtMS(res.Max), fmtMS(res.AllWatchingIn))
	fmt.Fprintf(&b, "  recovery: %d transport retries, %d breaker opens (%d fast rejects),\n",
		res.TransportRetries, res.BreakerOpens, res.BreakerRejects)
	fmt.Fprintf(&b, "            %d protocol restarts, %d session retries\n",
		res.ProtocolRestarts, res.SessionRetries)
	fmt.Fprintf(&b, "  network: %d messages sent, %d dropped (%d lost in transit, %d on severed links)\n",
		res.Net.Sent, res.Net.Dropped, res.Net.DroppedLoss, res.Net.DroppedLinkCut)
	fmt.Fprintf(&b, "  %-14s %10s %8s %8s %8s %10s %10s\n", "service", "attempts", "retries", "fail", "rejects", "p50", "p95")
	for _, name := range sortedCallNames(res.Calls) {
		s := res.Calls[name]
		fmt.Fprintf(&b, "  %-14s %10d %8d %8d %8d %10s %10s\n", name,
			s.Attempts, s.Retries, s.Failures, s.BreakerRejects,
			fmtMS(s.Hist.Quantile(0.5)), fmtMS(s.Hist.Quantile(0.95)))
	}
	if len(res.Phases) > 0 {
		b.WriteString(renderPhases(res.Phases))
	}
	b.WriteString("(retries cover lost packets; the breaker rides out the manager-farm outage;\n")
	b.WriteString(" protocol restarts re-run round 1 instead of resending one-time round-2 tokens)\n")
	return b.String()
}

// renderPhases prints per-phase endpoint deltas: what each service saw
// during each window of a fault timeline, with in-phase latency
// quantiles off the histogram deltas.
func renderPhases(phases []Phase) string {
	var b strings.Builder
	b.WriteString("  per-phase endpoint activity:\n")
	if len(phases) == 0 {
		return b.String()
	}
	base := phases[0].Start
	for _, ph := range phases {
		fmt.Fprintf(&b, "  [%-9s] +%s → +%s\n", ph.Name,
			fmtMS(ph.Start.Sub(base)), fmtMS(ph.End.Sub(base)))
		for _, name := range sortedMetricNames(ph.Endpoints) {
			m := ph.Endpoints[name]
			fmt.Fprintf(&b, "    %-14s req %6d  err %4d  p50 %10s  p95 %10s\n",
				name, m.Requests, m.Errors,
				fmtMS(m.Hist.Quantile(0.5)), fmtMS(m.Hist.Quantile(0.95)))
		}
	}
	return b.String()
}

// RenderFarm prints the farm-scaling series.
func RenderFarm(points []FarmPoint) string {
	var b strings.Builder
	b.WriteString("Manager farm scaling under a fixed arrival burst (§V)\n")
	fmt.Fprintf(&b, "%4s %12s %12s %12s %12s %12s %6s %7s\n",
		"farm", "login-med", "login-p95", "switch-med", "switch-p95", "join-med", "fail", "queue")
	for _, p := range points {
		fmt.Fprintf(&b, "%4d %12s %12s %12s %12s %12s %6d %7d\n",
			p.Farm, fmtMS(p.LoginMedian), fmtMS(p.LoginP95),
			fmtMS(p.SwitchMedian), fmtMS(p.SwitchP95), fmtMS(p.JoinMedian),
			p.Failures, p.MaxQueue)
	}
	return b.String()
}

func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}
