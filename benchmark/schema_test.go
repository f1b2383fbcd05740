package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// The metric tables must stay inside the driver's limits and every
// per-layer metric must say where it comes from and what it should move.
func TestMetricTables(t *testing.T) {
	m := buildManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}

	used := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if used[n] {
			t.Errorf("name %q used twice", n)
		}
		used[n] = true
	}
	isWorkload := map[string]bool{}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		isWorkload[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, ok := workloadFuncs[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(workloadFuncs) != len(m.Workloads) {
		t.Errorf("%d workload implementations, %d specs", len(workloadFuncs), len(m.Workloads))
	}
	direction := func(n, unit, better string) {
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q", n, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", n, better)
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		name("end-to-end", e.Name)
		direction(e.Name, e.Unit, e.Better)
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", e.Name)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
	for _, l := range m.PerLayer {
		name("per-layer", l.Name)
		direction(l.Name, l.Unit, l.Better)
		if l.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", l.Name)
		}
	}

	isEndToEnd := map[string]bool{}
	for _, e := range endToEnd() {
		isEndToEnd[e.Name] = true
	}
	for _, l := range perLayer {
		if l.Layer == "" || !strings.HasPrefix(l.Name, l.Layer+".") {
			t.Errorf("%s: layer %q must prefix the name", l.Name, l.Layer)
		}
		if l.Source != srcStack && l.Source != srcCounter && l.Source != srcProbe {
			t.Errorf("%s: source %q is not S, C or P", l.Name, l.Source)
		}
		moved, on, ok := strings.Cut(l.Moves, " on ")
		if !ok || !isEndToEnd[moved] || !isWorkload[on] {
			t.Errorf("%s: moves %q must read \"<end-to-end metric> on <workload>\"", l.Name, l.Moves)
		}
	}
	for pkg, layer := range layerOf {
		if _, ok := findMetric(perLayer, layer+".cpu_s"); !ok {
			t.Errorf("package %s is charged to layer %s, which has no cpu_s metric", pkg, layer)
		}
	}
}

// BENCHMARK.json is generated (`go run ./benchmark manifest`), never
// edited: the committed file must be exactly what the tables produce.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json is stale; regenerate it with: go run ./benchmark manifest > BENCHMARK.json")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(got, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has unexpected key %q", k)
	}
}
