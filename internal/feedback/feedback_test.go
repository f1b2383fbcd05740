package feedback

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestRoundStrings(t *testing.T) {
	want := map[Round]string{
		Login1: "LOGIN1", Login2: "LOGIN2", Switch1: "SWITCH1",
		Switch2: "SWITCH2", Join: "JOIN",
	}
	for r, s := range want {
		if r.String() != s {
			t.Fatalf("%d.String() = %q, want %q", r, r.String(), s)
		}
	}
	if Round(99).String() == "" {
		t.Fatal("unknown round empty")
	}
}

func TestLogRecordAndSubmit(t *testing.T) {
	l := NewLog()
	l.Record(Login1, t0, ms(100), true)
	l.Record(Login2, t0.Add(time.Second), ms(150), true)
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	c := NewCorpus()
	c.Submit(l)
	if c.Logs() != 1 || c.Len() != 2 {
		t.Fatalf("corpus logs=%d len=%d", c.Logs(), c.Len())
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Fatal("empty median != 0")
	}
	if got := Median([]time.Duration{ms(30), ms(10), ms(20)}); got != ms(20) {
		t.Fatalf("odd median = %v", got)
	}
	if got := Median([]time.Duration{ms(10), ms(20), ms(30), ms(40)}); got != ms(25) {
		t.Fatalf("even median = %v", got)
	}
}

func TestQuantile(t *testing.T) {
	d := []time.Duration{ms(10), ms(20), ms(30), ms(40), ms(50)}
	if got := Quantile(d, 0.5); got != ms(30) {
		t.Fatalf("p50 = %v", got)
	}
	if got := Quantile(d, 1.0); got != ms(50) {
		t.Fatalf("p100 = %v", got)
	}
	if got := Quantile(d, 0.0); got != ms(10) {
		t.Fatalf("p0 = %v", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile != 0")
	}
}

func TestHourlyBuckets(t *testing.T) {
	c := NewCorpus()
	l := NewLog()
	// Hour 0: 100, 200ms. Hour 1: 300ms. Failure samples excluded.
	l.Record(Login1, t0.Add(10*time.Minute), ms(100), true)
	l.Record(Login1, t0.Add(20*time.Minute), ms(200), true)
	l.Record(Login1, t0.Add(70*time.Minute), ms(300), true)
	l.Record(Login1, t0.Add(30*time.Minute), ms(9999), false)
	l.Record(Switch1, t0.Add(30*time.Minute), ms(1), true) // other round
	c.Submit(l)
	c.RecordUsers(t0.Add(15*time.Minute), 100)
	c.RecordUsers(t0.Add(45*time.Minute), 200)
	c.RecordUsers(t0.Add(75*time.Minute), 50)

	pts := c.Hourly(Login1, t0, 3)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Median != ms(150) || pts[0].Samples != 2 {
		t.Fatalf("hour 0 = %+v", pts[0])
	}
	if pts[0].Users != 150 {
		t.Fatalf("hour 0 users = %v", pts[0].Users)
	}
	if pts[1].Median != ms(300) || pts[1].Users != 50 {
		t.Fatalf("hour 1 = %+v", pts[1])
	}
	if pts[2].Samples != 0 || pts[2].Median != 0 {
		t.Fatalf("empty hour 2 = %+v", pts[2])
	}
}

func TestLatenciesPeakSplit(t *testing.T) {
	c := NewCorpus()
	l := NewLog()
	l.Record(Join, t0.Add(19*time.Hour), ms(100), true)              // peak (19h)
	l.Record(Join, t0.Add(26*time.Hour), ms(200), true)              // day 2, 02h off-peak
	l.Record(Join, t0.Add(24*time.Hour+20*time.Hour), ms(300), true) // day 2, 20h peak
	c.Submit(l)
	peak := c.Latencies(Join, t0, 18, 24)
	off := c.Latencies(Join, t0, 0, 18)
	if len(peak) != 2 || len(off) != 1 {
		t.Fatalf("peak=%d off=%d", len(peak), len(off))
	}
}

func TestCDF(t *testing.T) {
	d := []time.Duration{ms(100), ms(200), ms(300), ms(400)}
	pts := CDF(d, ms(400), 5)
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].X != 0 || pts[0].P != 0 {
		t.Fatalf("first point = %+v", pts[0])
	}
	if pts[4].X != ms(400) || pts[4].P != 1 {
		t.Fatalf("last point = %+v", pts[4])
	}
	if pts[2].P != 0.5 { // x=200ms → two of four ≤
		t.Fatalf("mid point = %+v", pts[2])
	}
}

func TestCDFEmpty(t *testing.T) {
	pts := CDF(nil, ms(100), 3)
	for _, p := range pts {
		if p.P != 0 {
			t.Fatalf("empty CDF nonzero: %+v", p)
		}
	}
}

func TestPearsonKnownValues(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yPos := []float64{2, 4, 6, 8, 10}
	if r := pearson(x, yPos); math.Abs(r-1) > 1e-9 {
		t.Fatalf("perfect positive r = %v", r)
	}
	yNeg := []float64{10, 8, 6, 4, 2}
	if r := pearson(x, yNeg); math.Abs(r+1) > 1e-9 {
		t.Fatalf("perfect negative r = %v", r)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if r := pearson(x, flat); r != 0 {
		t.Fatalf("zero-variance r = %v", r)
	}
	if pearson([]float64{1}, []float64{2}) != 0 {
		t.Fatal("short input r != 0")
	}
}

func TestPearsonHourlySkipsEmptyHours(t *testing.T) {
	pts := []HourlyPoint{
		{Hour: 0, Median: ms(100), Samples: 10, Users: 1000},
		{Hour: 1, Median: 0, Samples: 0, Users: 2000}, // empty hour skipped
		{Hour: 2, Median: ms(100), Samples: 10, Users: 3000},
		{Hour: 3, Median: ms(101), Samples: 10, Users: 1500},
	}
	r := PearsonHourly(pts)
	if math.Abs(r) > 0.9 {
		t.Fatalf("near-flat latency should correlate weakly, r = %v", r)
	}
}

func TestMaxAbsCDFGap(t *testing.T) {
	a := []CDFPoint{{0, 0}, {ms(100), 0.5}, {ms(200), 1}}
	b := []CDFPoint{{0, 0}, {ms(100), 0.6}, {ms(200), 1}}
	if g := MaxAbsCDFGap(a, b); math.Abs(g-0.1) > 1e-9 {
		t.Fatalf("gap = %v, want 0.1", g)
	}
	if g := MaxAbsCDFGap(a, a); g != 0 {
		t.Fatalf("self gap = %v", g)
	}
}

// Property: pearson is symmetric and bounded in [-1, 1].
func TestPearsonProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		x, y := xs[:n], ys[:n]
		for _, v := range append(append([]float64{}, x...), y...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				return true // skip pathological float inputs
			}
		}
		r1, r2 := pearson(x, y), pearson(y, x)
		if math.Abs(r1-r2) > 1e-9 {
			return false
		}
		return r1 >= -1.0000001 && r1 <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Median lies between min and max.
func TestMedianBoundsProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		d := make([]time.Duration, len(vals))
		lo, hi := time.Duration(math.MaxInt64), time.Duration(0)
		for i, v := range vals {
			d[i] = time.Duration(v)
			if d[i] < lo {
				lo = d[i]
			}
			if d[i] > hi {
				hi = d[i]
			}
		}
		m := Median(d)
		return m >= lo && m <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
