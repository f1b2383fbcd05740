// Engine benchmarks no `go run ./benchmark` probe covers: heap fan-out,
// Sleep under a deep wheel, the traced week and the elastic farm. The
// event, sleep, timer-stop, deep-fan-out and RPC costs and the week /
// content / megascale runs are timed by benchmark/ (sim.*_ns,
// simnet.rpc_ns and its workloads) and have no twin here.
package bench

import (
	"testing"
	"time"

	"p2pdrm/internal/exp"
	"p2pdrm/internal/sim"
)

// BenchmarkSchedulerFanout measures a wide heap: 1024 events live at all
// times, each firing schedules a replacement. Exercises sift cost at
// realistic pending-event populations.
func BenchmarkSchedulerFanout(b *testing.B) {
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	const width = 1024
	n := 0
	var fn func()
	fn = func() {
		n++
		if n+width <= b.N {
			s.After(time.Duration(1+n%7)*time.Millisecond, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < width && i < b.N; i++ {
		s.After(time.Duration(1+i%7)*time.Millisecond, fn)
	}
	s.Run()
}

// BenchmarkSchedulerSleepDeep measures the Sleep path while a large
// background timer population (renewal-class, minutes out) is pending —
// the engine state a million-viewer run sleeps inside. The background
// timers live in the wheel, so each Sleep's schedule+fire works against
// a near-empty heap instead of sifting through the whole population.
func BenchmarkSchedulerSleepDeep(b *testing.B) {
	const background = 262144
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	for i := 0; i < background; i++ {
		d := 3*time.Hour + time.Duration(i*2654435761%600_000)*time.Millisecond
		s.After(d, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Go(func() {
		for i := 0; i < b.N; i++ {
			s.Sleep(time.Millisecond)
		}
	})
	s.RunUntil(s.Now().Add(3*time.Hour - time.Minute))
	b.StopTimer()
	s.Stop()
}

// BenchmarkEngineWeekTraced runs a miniature diurnal trace with causal
// tracing armed on every session (TraceEvery 1) — the worst-case
// tracing load. The budget for this wall clock over the untraced one is
// ≤ 1.05 (5%); the measured ratio is `go run ./benchmark run -trace`'s
// obs.trace_overhead.
func BenchmarkEngineWeekTraced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := exp.RunWeek(exp.WeekConfig{
			Seed:                1,
			Days:                1,
			Channels:            3,
			Users:               30,
			PeakSessionsPerHour: 20,
			MeanSession:         15 * time.Minute,
			TraceEvery:          1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	virtual := float64(b.N) * 24 * 3600
	b.ReportMetric(virtual/b.Elapsed().Seconds(), "virtual-s/real-s")
}

// BenchmarkEngineScaleOut runs the elastic-farm sweep — a flash crowd
// growing 10× while members join the User Manager VIP live — and reports
// the worst per-phase login p95 next to the wall clock, so a regression
// in the elastic serving path shows up in the benchmark artifact, not
// just in the scenario's golden test.
func BenchmarkEngineScaleOut(b *testing.B) {
	var worst time.Duration
	for i := 0; i < b.N; i++ {
		res, err := exp.RunScaleOut(exp.ScaleOutConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, ph := range res.PhaseStats {
			if ph.LoginP95 > worst {
				worst = ph.LoginP95
			}
		}
	}
	b.ReportMetric(float64(worst.Microseconds())/1000, "login-p95-ms")
}
