package obs

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p2pdrm/internal/sim"
)

func TestSamplerTicksOnSimClock(t *testing.T) {
	start := time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)
	sched := sim.New(start, 1)
	var counter atomic.Int64
	sched.At(start.Add(90*time.Second), func() { counter.Store(42) })

	sp := NewSampler(time.Minute)
	sp.AddSource(func(add func(string, float64)) {
		add("counter", float64(counter.Load()))
	})
	end := start.Add(5 * time.Minute)
	sp.Run(sched, end)
	sched.RunUntil(end)

	rows := sp.Series().Rows()
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	for i, r := range rows {
		want := start.Add(time.Duration(i+1) * time.Minute)
		if !r.T.Equal(want) {
			t.Fatalf("row %d at %v, want %v", i, r.T, want)
		}
	}
	if rows[0].Values["counter"] != 0 || rows[1].Values["counter"] != 42 {
		t.Fatalf("sampler read stale values: %v / %v", rows[0].Values, rows[1].Values)
	}
}

func TestSeriesCSVSortedColumnsAndTimes(t *testing.T) {
	var s Series
	base := time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)
	s.Append(base, map[string]float64{"zeta": 1, "alpha": 2.5})
	s.Append(base.Add(time.Hour), map[string]float64{"alpha": 3, "mid": 0.125})

	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"time,alpha,mid,zeta",
		"2008-06-23T00:00:00Z,2.5,,1",
		"2008-06-23T01:00:00Z,3,0.125,",
		"",
	}, "\n")
	if buf.String() != want {
		t.Fatalf("CSV mismatch:\n got: %q\nwant: %q", buf.String(), want)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for i := 2; i < len(lines); i++ {
		if lines[i] < lines[i-1] {
			t.Fatal("rows not sorted by time")
		}
	}
}

// TestSeriesStreamingSinks pins the bounded-heap contract: Stream first
// replays any retained rows through the sink, every later row goes
// straight out (to all sinks of a MultiSink), nothing is retained, and
// the streamed CSV matches what a fully retained series would have
// written — including the schema lock, so a column first seen after
// streaming began is dropped from the export but still counted.
func TestSeriesStreamingSinks(t *testing.T) {
	base := time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)

	var retained Series
	retained.Append(base, map[string]float64{"b": 1, "a": 2})
	retained.Append(base.Add(time.Minute), map[string]float64{"a": 3, "b": 4})

	var s Series
	s.Append(base, map[string]float64{"b": 1, "a": 2})
	var csvBuf, jslBuf bytes.Buffer
	s.Stream(MultiSink(NewCSVSink(&csvBuf), NewJSONLSink(&jslBuf)))
	s.Append(base.Add(time.Minute), map[string]float64{"a": 3, "b": 4})
	// "late" was not in the schema when streaming started: it must not
	// corrupt the export.
	s.Append(base.Add(2*time.Minute), map[string]float64{"a": 5, "late": 9})

	if err := s.SinkErr(); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("Len() = %d, want 3 (streamed rows still count)", got)
	}
	if rows := s.Rows(); len(rows) != 0 {
		t.Fatalf("streamed series retained %d rows; want 0", len(rows))
	}

	var want bytes.Buffer
	if err := retained.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	wantCSV := want.String() + "2008-06-23T00:02:00Z,5,\n"
	if csvBuf.String() != wantCSV {
		t.Fatalf("streamed CSV mismatch:\n got: %q\nwant: %q", csvBuf.String(), wantCSV)
	}
	wantJSONL := `{"time":"2008-06-23T00:00:00Z","a":2,"b":1}` + "\n" +
		`{"time":"2008-06-23T00:01:00Z","a":3,"b":4}` + "\n" +
		`{"time":"2008-06-23T00:02:00Z","a":5}` + "\n"
	if jslBuf.String() != wantJSONL {
		t.Fatalf("streamed JSONL mismatch:\n got: %q\nwant: %q", jslBuf.String(), wantJSONL)
	}
}

func TestSamplerStopsAtUntil(t *testing.T) {
	start := time.Unix(0, 0).UTC()
	sched := sim.New(start, 1)
	sp := NewSampler(10 * time.Second)
	sp.AddSource(func(add func(string, float64)) { add("x", 1) })
	sp.Run(sched, start.Add(25*time.Second))
	sched.RunUntil(start.Add(time.Hour))
	if got := sp.Series().Len(); got != 2 {
		t.Fatalf("got %d rows, want 2 (ticks at +10s and +20s only)", got)
	}
}

// Append adds a row from a column→value map; the sampler's tick path
// writes columns directly without a per-row map.
func (s *Series) Append(t time.Time, values map[string]float64) {
	s.mu.Lock()
	s.beginLocked(t)
	for k, v := range values {
		s.setLocked(k, v)
	}
	s.endLocked()
	s.mu.Unlock()
}
