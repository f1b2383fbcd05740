package main

import (
	"fmt"
	"io"
)

// verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// worseBy returns how much worse b's median is than a's, as a share of
// a's median (positive = worse), honouring the metric's direction. A
// zero baseline (the failure fraction) compares absolutely.
func worseBy(m metric, a, b stat) float64 {
	d := b.Median - a.Median
	if m.Better == "higher" {
		d = -d
	}
	if a.Median != 0 {
		d /= a.Median
	}
	return d
}

func spread(s stat) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Median
}

// judge applies the rule from the choosing-metrics guide: a metric
// regressed only when its median is worse by more than its bound AND the
// two sets' ranges do not overlap; where either set's own spread is
// wider than the bound the comparison cannot resolve a change of that
// size, unless every run of one side beats every run of the other.
func judge(m metric, a, b stat, noisy bool) string {
	delta := worseBy(m, a, b)
	bWorse, bBetter := b.Min > a.Max, b.Max < a.Min
	if m.Better == "higher" {
		bWorse, bBetter = bBetter, bWorse
	}
	switch {
	case delta > m.Bound && bWorse:
		if noisy && !m.Simulated {
			return verdictUnresolved // a noisy set's host timings prove nothing
		}
		return verdictRegressed
	case bBetter && -delta > m.Bound:
		return verdictImproved
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return verdictUnresolved
	}
	return verdictOK
}

// compareSets prints, per (workload, metric), both medians, the delta,
// the metric's bound and both sets' min–max, and returns the number of
// regressions. exact additionally demands identical digests (selfcheck:
// the same code and seed must repeat exactly).
func compareSets(w io.Writer, a, b *resultSet, exact bool) (regressions int) {
	noisy := a.Noisy || b.Noisy
	if noisy {
		fmt.Fprintln(w, "NOISY: a reference loop moved by more than 10 % during a set; host-metric regressions are not called from it")
	}
	if a.Seed != b.Seed || a.Quick != b.Quick {
		fmt.Fprintf(w, "warning: sets differ in inputs (seed %d vs %d, quick %v vs %v); simulated metrics are not comparable\n", a.Seed, b.Seed, a.Quick, b.Quick)
	}
	byName := map[string]workloadResult{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "\n== %s: missing from the second set\n", wa.Name)
			regressions++
			continue
		}
		fmt.Fprintf(w, "\n== %s\n", wa.Name)
		fmt.Fprintf(w, "  %-22s %-5s %14s %14s %9s %7s  %-27s %-27s %s\n", "metric", "unit", "A median", "B median", "delta", "bound", "A min–max", "B min–max", "verdict")
		for _, m := range endToEnd() {
			sa, oka := wa.EndToEnd[m.Name]
			sb, okb := wb.EndToEnd[m.Name]
			if !oka && !okb {
				continue
			}
			if oka != okb {
				fmt.Fprintf(w, "  %-22s reported by only one set\n", m.Name)
				regressions++
				continue
			}
			v := judge(m, sa, sb, noisy)
			if v == verdictRegressed {
				regressions++
			}
			fmt.Fprintf(w, "  %-22s %-5s %14.6g %14.6g %+8.2f%% %6.1f%%  %-27s %-27s %s\n", m.Name, m.Unit, sa.Median, sb.Median,
				100*worseBy(m, sa, sb), 100*m.Bound, fmt.Sprintf("%.6g–%.6g", sa.Min, sa.Max), fmt.Sprintf("%.6g–%.6g", sb.Min, sb.Max), v)
		}
		if wa.Digest != wb.Digest {
			fmt.Fprintf(w, "  digest differs: %s vs %s (simulated behaviour changed)\n", wa.Digest, wb.Digest)
			if exact {
				regressions++
			}
		}
		if len(wb.Problems) > 0 {
			fmt.Fprintf(w, "  second set failed %d correctness checks\n", len(wb.Problems))
			regressions++
		}
	}
	return regressions
}
