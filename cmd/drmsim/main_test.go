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
	for _, f := range figs {
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
	} {
		err := run(tc.args)
		if err == nil {
			t.Errorf("%v: accepted", tc.args)
		} else if !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("%v: error does not name %s: %q", tc.args, tc.bad, err)
		}
	}
}

// The scenarios added after the original list must be registered, or the
// -fig gate silently locks them out.
func TestFigListCoversNewScenarios(t *testing.T) {
	for _, want := range []string{"faults", "scaleout", "megascale", "timeshift", "adversary", "all"} {
		found := false
		for _, f := range figs {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Errorf("figure %q missing from the -fig list", want)
		}
	}
}

// TestMetricsExportWritesScenarioArtifacts pins the -metrics and -trace
// contracts for the conformance scenarios: each run must leave the full
// five-file metric set (phases/endpoints/calls CSVs, the sampler series
// CSV, and the event trace JSONL) and the three causal-trace artifacts,
// every file non-empty.
func TestMetricsExportWritesScenarioArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario runs")
	}
	for _, fig := range []string{"timeshift", "adversary"} {
		fig := fig
		t.Run(fig, func(t *testing.T) {
			dir, traceDir := t.TempDir(), t.TempDir()
			// Silence the figure rendering; only the export side matters here.
			old := os.Stdout
			null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			os.Stdout = null
			err = run([]string{"-fig", fig, "-seed", "1", "-metrics", dir, "-trace", traceDir})
			os.Stdout = old
			null.Close()
			if err != nil {
				t.Fatal(err)
			}
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
		})
	}
}
