package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownFigErrorListsEveryValidName pins the -fig error contract: a
// typo'd figure name must fail fast and the error must enumerate every
// valid value (the list is the discovery surface — there is no other).
func TestUnknownFigErrorListsEveryValidName(t *testing.T) {
	err := run([]string{"-fig", "nope"})
	if err == nil {
		t.Fatal("unknown -fig accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"nope"`) {
		t.Errorf("error does not name the rejected value: %q", msg)
	}
	for _, f := range figureNames() {
		if !strings.Contains(msg, f) {
			t.Errorf("error omits valid figure %q: %q", f, msg)
		}
	}
}

// TestBadFlagValuesRejected pins input validation: a malformed integer
// list or an out-of-range lane count must fail before any scenario runs,
// and the error must name the bad value.
func TestBadFlagValuesRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bad  string
	}{
		{[]string{"-fig", "megascale", "-mega", "5x"}, `"5x"`},
		{[]string{"-fig", "baseline", "-viewers", "50,12abc"}, `"12abc"`},
		{[]string{"-fig", "farm", "-farms", "0"}, `"0"`},
		{[]string{"-fig", "megascale", "-shards", "0"}, "-shards 0"},
		{[]string{"-fig", "megascale", "-shards", "-2"}, "-shards -2"},
		{[]string{"-fig", "5a", "-trace", t.TempDir(), "-traceevery", "0"}, "-traceevery 0"},
		{[]string{"-fig", "5a", "-traceevery", "-3"}, "-traceevery -3"},
	} {
		err := run(tc.args)
		if err == nil {
			t.Errorf("%v: accepted", tc.args)
		} else if !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("%v: error does not name %s: %q", tc.args, tc.bad, err)
		}
	}
}

// Every scenario must be a row of the figure table, or the -fig gate
// silently locks it out; a row needs its name, its usage line and its
// run function, and names must not collide.
func TestFigListCoversNewScenarios(t *testing.T) {
	names := " " + strings.Join(figureNames(), " ") + " "
	for _, want := range []string{"faults", "scaleout", "megascale", "timeshift", "adversary", "all"} {
		if !strings.Contains(names, " "+want+" ") {
			t.Errorf("figure %q missing from the -fig list", want)
		}
	}
	seen := map[string]bool{}
	for _, f := range figures {
		if f.name == "" || f.about == "" || f.run == nil {
			t.Errorf("incomplete figure row %+v", f)
		}
		if seen[f.name] || f.name == "all" {
			t.Errorf("figure name %q is taken", f.name)
		}
		seen[f.name] = true
	}
}

// TestMetricsExportWritesScenarioArtifacts pins the -metrics and -trace
// contracts by walking the figure table: after one `-fig all` at smoke
// sizes, every figure whose run handed back a bundle with a phase
// timeline must have left the full five-file metric set
// (phases/endpoints/calls CSVs, the sampler series CSV, and the event
// trace JSONL) and the three causal-trace artifacts, every file
// non-empty — and its critical-path CSV must carry assembled journeys,
// not just the header.
func TestMetricsExportWritesScenarioArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario runs")
	}
	dir, traceDir := t.TempDir(), t.TempDir()
	// Silence the figure rendering; only the export side matters here.
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	err = run([]string{"-fig", "all", "-seed", "1", "-metrics", dir, "-trace", traceDir,
		"-days", "1", "-channels", "3", "-users", "30", "-peak", "20",
		"-viewers", "20", "-farms", "1", "-mega", "2000"})
	os.Stdout = old
	null.Close()
	if err != nil {
		t.Fatal(err)
	}
	phased := 0
	for _, f := range figures {
		fig := f.name
		if _, err := os.Stat(filepath.Join(dir, fig+"_phases.csv")); err != nil {
			continue // no phase timeline: the figure writes its own files or none
		}
		phased++
		t.Run(fig, func(t *testing.T) {
			var paths []string
			for _, suffix := range []string{"phases.csv", "endpoints.csv", "calls.csv", "series.csv", "trace.jsonl"} {
				paths = append(paths, filepath.Join(dir, fig+"_"+suffix))
			}
			for _, suffix := range []string{"trace_events.json", "waterfall.txt", "critical_path.csv"} {
				paths = append(paths, filepath.Join(traceDir, fig+"_"+suffix))
			}
			for _, path := range paths {
				st, err := os.Stat(path)
				if err != nil {
					t.Errorf("missing artifact %s: %v", path, err)
					continue
				}
				if st.Size() == 0 {
					t.Errorf("artifact %s is empty", path)
				}
			}
			cp, err := os.ReadFile(filepath.Join(traceDir, fig+"_critical_path.csv"))
			if err != nil {
				t.Fatal(err)
			}
			if strings.Count(string(cp), "\n") < 2 {
				t.Errorf("%s_critical_path.csv has no journey rows:\n%s", fig, cp)
			}
		})
	}
	if phased < 4 {
		t.Errorf("only %d figures exported a phase timeline; faults, scaleout, timeshift and adversary must", phased)
	}
}
