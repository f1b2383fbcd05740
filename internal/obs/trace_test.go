package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

func TestNilTraceIsDisabled(t *testing.T) {
	var tr *Trace
	tr.Emit(Span{Kind: "call"}) // must not panic
	if tr.Len() != 0 || tr.Total() != 0 || tr.Spans() != nil {
		t.Fatal("nil trace must read as empty")
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.Emit(Span{Kind: "call", Service: "drm.login1"})
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit allocates %v times per call, want 0", allocs)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := NewTrace(3)
	base := time.Unix(0, 0).UTC()
	for i := 0; i < 5; i++ {
		tr.Emit(Span{Begin: base.Add(time.Duration(i) * time.Second), Kind: "call"})
	}
	if tr.Len() != 3 || tr.Total() != 5 {
		t.Fatalf("len=%d total=%d", tr.Len(), tr.Total())
	}
	spans := tr.Spans()
	for i, sp := range spans {
		want := base.Add(time.Duration(i+2) * time.Second)
		if !sp.Begin.Equal(want) {
			t.Fatalf("span %d begin %v, want %v (oldest-first)", i, sp.Begin, want)
		}
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	build := func() *Trace {
		tr := NewTrace(16)
		base := time.Unix(1000, 0).UTC()
		for i := 0; i < 4; i++ {
			tr.Emit(Span{
				Begin: base, End: base.Add(143 * time.Millisecond),
				Kind: "call", Service: "drm.login1", Dest: "um.provider",
				Attempts: 1 + i%2, Retries: i % 2, Outcome: "ok",
			})
		}
		tr.Emit(Span{Begin: base, End: base, Kind: "breaker_open", Dest: "cm.vip"})
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("JSONL export not byte-deterministic")
	}
	lines := bytes.Split(bytes.TrimSpace(a.Bytes()), []byte("\n"))
	if len(lines) != 6 { // 5 spans + footer
		t.Fatalf("got %d lines, want 6", len(lines))
	}
	var foot footer
	if err := json.Unmarshal(lines[5], &foot); err != nil {
		t.Fatalf("footer line is not valid JSON: %v", err)
	}
	if foot.Kind != kindFooter || foot.Total != 5 || foot.Retained != 5 || foot.Dropped != 0 {
		t.Fatalf("footer mismatch: %+v", foot)
	}
	var sp Span
	if err := json.Unmarshal(lines[0], &sp); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v", err)
	}
	if sp.Service != "drm.login1" || sp.Outcome != "ok" {
		t.Fatalf("round-trip mismatch: %+v", sp)
	}
	// Schema: field order is fixed by the struct declaration.
	wantPrefix := fmt.Sprintf(`{"begin":%q,"end":%q,"kind":"call"`,
		"1970-01-01T00:16:40Z", "1970-01-01T00:16:40.143Z")
	if !bytes.HasPrefix(lines[0], []byte(wantPrefix)) {
		t.Fatalf("line 0 schema drifted:\n%s", lines[0])
	}
}
