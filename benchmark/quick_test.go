package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The benchmark re-executes its own binary for every repetition; inside
// `go test` that binary is the test binary, so TestMain routes a `child`
// invocation to the real entry point instead of the test runner.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := dispatch(os.Args[1:], os.Stdout); err != nil {
			os.Stderr.WriteString("benchmark: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// inTempDir runs the test from a scratch directory, where the benchmark
// writes out/benchmark/.
func inTempDir(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// TestQuickSmoke drives the whole run → JSON → compare path at smoke
// sizes (a thin day of sessions, 100 flash viewers, 16 content viewers ×
// 30 s, 20 k timers) so the benchmark cannot bit-rot unnoticed.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	inTempDir(t)
	var out bytes.Buffer
	if err := dispatch([]string{"run", "-quick", "-reps", "1", "-trace", "-out", "a.json"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	rs, err := readSet("a.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result set, want %d", len(rs.Workloads), len(workloads))
	}
	for _, w := range rs.Workloads {
		for _, m := range hostMetrics {
			if s, ok := w.EndToEnd[m.Name]; !ok || s.Median <= 0 {
				t.Errorf("%s: %s = %+v, want a positive value", w.Name, m.Name, s)
			}
		}
		if _, ok := w.EndToEnd["failed_ops_frac"]; !ok {
			t.Errorf("%s: no failed_ops_frac", w.Name)
		}
		if w.Attempted < 1 || w.Failed != 0 || len(w.Problems) > 0 {
			t.Errorf("%s: attempted %d failed %d problems %v", w.Name, w.Attempted, w.Failed, w.Problems)
		}
		for _, m := range perLayer {
			if m.Source == srcStack && m.Name != "harness.unattributed_frac" {
				if _, ok := w.PerLayer[m.Name]; !ok {
					t.Errorf("%s: traced pass lacks %s", w.Name, m.Name)
				}
			}
		}
	}
	for _, m := range perLayer {
		if _, ok := rs.Probes[m.Name]; m.Source == srcProbe && !ok &&
			m.Name != "obs.trace_overhead" && m.Name != "harness.profile_overhead" {
			t.Errorf("probes lack %s", m.Name)
		}
	}
	spans, err := os.ReadFile(spansPath)
	if err != nil || bytes.Count(spans, []byte("\n")) < len(rs.Probes) {
		t.Errorf("spans file: %v (%d bytes)", err, len(spans))
	}

	// The smoke's 3 ms reference loops can read noisy on a busy host;
	// the comparisons below need a set that is not.
	rs.Noisy = false
	if err := writeJSON("a.json", rs); err != nil {
		t.Fatal(err)
	}
	// A set compared with itself has no regressions ...
	out.Reset()
	if err := dispatch([]string{"compare", "a.json", "a.json"}, &out); err != nil {
		t.Fatalf("compare a a: %v\n%s", err, out.String())
	}
	// ... and one with a slower, non-overlapping wall clock and a new
	// failure regresses on exactly those.
	worse := *rs
	worse.Workloads = append([]workloadResult(nil), rs.Workloads...)
	w0 := worse.Workloads[0]
	w0.EndToEnd = map[string]stat{}
	for k, v := range rs.Workloads[0].EndToEnd {
		w0.EndToEnd[k] = v
	}
	wall := w0.EndToEnd["wall_s"]
	wall.Median, wall.Min, wall.Max = wall.Median*2, wall.Max*1.5, wall.Max*3
	w0.EndToEnd["wall_s"] = wall
	failed := w0.EndToEnd["failed_ops_frac"]
	failed.Median, failed.Min, failed.Max = 0.01, 0.01, 0.01
	w0.EndToEnd["failed_ops_frac"] = failed
	worse.Workloads[0] = w0
	if err := writeJSON("b.json", &worse); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := dispatch([]string{"compare", "a.json", "b.json"}, &out); err == nil {
		t.Errorf("compare accepted a 2× wall clock and a new failure:\n%s", out.String())
	}
	if n := strings.Count(out.String(), verdictRegressed); n != 2 {
		t.Errorf("%d metrics regressed, want wall_s and failed_ops_frac:\n%s", n, out.String())
	}
	// A noisy set cannot convict a host metric; the deterministic one still does.
	worse.Noisy = true
	if err := writeJSON("b.json", &worse); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := dispatch([]string{"compare", "a.json", "b.json"}, &out); err == nil || strings.Count(out.String(), verdictRegressed) != 1 {
		t.Errorf("noisy compare: err %v\n%s", err, out.String())
	}
}

// TestFlashSeedIsReported: flash_faults may move on from the requested
// seed (seed 9 trips the lost-feed bug at this commit), but only by whole
// strides, and the seed it ran is in the outcome and changes the digest.
func TestFlashSeedIsReported(t *testing.T) {
	timed, err := flashFaults(params{Seed: 9, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	o, err := timed()
	if err != nil {
		t.Fatal(err)
	}
	if steps := (o.Seed - 9) / flashSeedStride; (o.Seed-9)%flashSeedStride != 0 || steps < 0 || steps > flashSeedTries {
		t.Errorf("ran seed %d, want 9 plus at most %d strides of %d", o.Seed, flashSeedTries, flashSeedStride)
	}
	if len(o.Problems) > 0 || o.Failed != 0 {
		t.Errorf("failed %d, problems %v", o.Failed, o.Problems)
	}
	before := o.digest()
	o.Seed++
	if o.digest() == before {
		t.Error("the digest does not cover the seed that ran")
	}
}

// TestDriverLine checks the driver contract: one workload in, one JSON
// object with exactly the four keys out, every declared metric present.
func TestDriverLine(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	inTempDir(t)
	for trace, want := range map[string][]manifestMetric{"0": buildManifest().EndToEnd, "1": buildManifest().PerLayer} {
		var out bytes.Buffer
		if err := dispatch([]string{"--workload", "content_stream", "--seed", "3", "--seconds", "1", "--trace", trace, "--quick"}, &out); err != nil {
			t.Fatalf("trace %s: %v", trace, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
		}
		if len(got) != 4 {
			t.Errorf("trace %s: keys %v, want exactly correct, attempted, failed, metrics", trace, got)
		}
		var line driverLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("trace %s: %+v", trace, line)
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(line.Metrics), len(want))
		}
		for _, m := range want {
			if v, ok := line.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v (present %v), want unit %s", trace, m.Name, v, ok, m.Unit)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(outDir, "content_stream.pprof")); err != nil {
		t.Errorf("traced pass left no profile: %v", err)
	}
}
