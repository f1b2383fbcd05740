package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"testing"
	"time"
)

func TestWriteTraceEventsDeterministic(t *testing.T) {
	spans := journeyFixture()
	var a, b bytes.Buffer
	if err := WriteTraceEvents(&a, spans, 7, 0); err != nil {
		t.Fatal(err)
	}
	// Shuffled input must produce identical bytes: the exporter sorts.
	shuffled := append([]Span(nil), spans...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if err := WriteTraceEvents(&b, shuffled, 7, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("trace_event export depends on span emission order")
	}
}

func TestTraceEventsRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)
	kinds := []string{KindJourney, KindStage, KindCall, KindServer, KindShed, KindMark}
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(30)
		spans := make([]Span, n)
		for i := range spans {
			begin := base.Add(time.Duration(rng.Intn(1_000_000)) * time.Microsecond)
			dur := time.Duration(rng.Intn(200_000)) * time.Microsecond
			kind := kinds[rng.Intn(len(kinds))]
			if kind == KindMark {
				dur = 0
			}
			spans[i] = Span{
				Trace: rng.Uint64()%8 + 1, ID: rng.Uint64() | 1, Parent: rng.Uint64(),
				Begin: begin, End: begin.Add(dur),
				Kind: kind, Name: "n" + time.Duration(i).String(),
				Node: "node." + time.Duration(i%4).String(), Outcome: "ok",
				Attempts: rng.Intn(3), Retries: rng.Intn(2),
			}
		}
		var buf bytes.Buffer
		total, dropped := int64(n+3), int64(3)
		if err := WriteTraceEvents(&buf, spans, total, dropped); err != nil {
			t.Fatal(err)
		}
		events, gotTotal, gotDropped, err := ReadTraceEvents(&buf)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if gotTotal != total || gotDropped != dropped {
			t.Fatalf("iter %d: metadata %d/%d, want %d/%d", iter, gotTotal, gotDropped, total, dropped)
		}
		if len(events) != n {
			t.Fatalf("iter %d: %d events, want %d", iter, len(events), n)
		}
		// Every span must appear exactly once with its interval preserved to
		// microsecond resolution, pid = trace, tid = node.
		type key struct {
			pid  uint64
			name string
			ts   int64
		}
		seen := map[key]traceEvent{}
		for _, ev := range events {
			seen[key{ev.Pid, ev.Name, ev.Ts}] = ev
		}
		for _, sp := range spans {
			ev, ok := seen[key{sp.Trace, sp.Name, sp.Begin.UnixMicro()}]
			if !ok {
				t.Fatalf("iter %d: span %q missing from export", iter, sp.Name)
			}
			begin, end := ev.Interval()
			if !begin.Equal(sp.Begin.Truncate(time.Microsecond)) {
				t.Fatalf("iter %d: begin drifted: %v vs %v", iter, begin, sp.Begin)
			}
			wantEnd := sp.End.Truncate(time.Microsecond)
			if sp.Kind == KindMark {
				wantEnd = begin
			}
			if !end.Equal(wantEnd) {
				t.Fatalf("iter %d: end drifted: %v vs %v", iter, end, wantEnd)
			}
			if ev.Tid != sp.Node || ev.Cat != sp.Kind {
				t.Fatalf("iter %d: tid/cat mismatch: %+v vs %+v", iter, ev, sp)
			}
			if sp.Kind == KindMark && ev.Ph != "i" {
				t.Fatalf("iter %d: mark exported as %q", iter, ev.Ph)
			}
		}
	}
}

// ReadTraceEvents decodes a WriteTraceEvents document back into its
// event list and metadata — the inverse used by the encode→decode
// property test.
func ReadTraceEvents(r io.Reader) ([]traceEvent, int64, int64, error) {
	var file traceEventFile
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, 0, 0, err
	}
	return file.TraceEvents, file.Metadata.Total, file.Metadata.Dropped, nil
}

// Interval recovers the (begin, end) of a decoded event.
func (ev traceEvent) Interval() (time.Time, time.Time) {
	begin := time.UnixMicro(ev.Ts).UTC()
	return begin, begin.Add(time.Duration(ev.Dur) * time.Microsecond)
}
