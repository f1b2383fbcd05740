package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const outDir = "out/benchmark"

// stat summarises one metric over the repetitions of one workload.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"` // repetitions behind the median
	// Samples is the sample count behind a simulated percentile.
	Samples int64 `json:"samples,omitempty"`
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

func newStat(unit string, values []float64) stat {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return stat{Unit: unit, Median: median(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// workloadResult is one workload's untraced repetitions (and, with
// -trace, its traced pass) reduced to named metrics.
type workloadResult struct {
	Name string `json:"name"`
	// Seed is the seed the workload ran. It is the requested one except
	// where flash_faults had to move on from it (see flashFaults).
	Seed      int64           `json:"seed"`
	Digest    string          `json:"digest"`
	Detail    string          `json:"detail"`
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	EndToEnd  map[string]stat `json:"end_to_end"`
	PerLayer  map[string]stat `json:"per_layer"`
	Problems  []string        `json:"problems,omitempty"`
	// setups holds every repetition's setup_s, so that the driver line can
	// add set-up-only samples before taking the median.
	setups []float64
}

// hostInfo is the header that makes two result sets comparable.
type hostInfo struct {
	Nproc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// resultSet is what `run` writes and `compare` reads.
type resultSet struct {
	Host  hostInfo `json:"host"`
	Seed  int64    `json:"seed"`
	Reps  int      `json:"reps"`
	Quick bool     `json:"quick,omitempty"`
	// RefLoopMS times the fixed pure-CPU reference loop before the first
	// and after the last workload; Noisy is set when the two differ by
	// more than 10 %, and compare then refuses to call regressions.
	RefLoopMS [2]float64       `json:"ref_loop_ms"`
	Noisy     bool             `json:"noisy"`
	Workloads []workloadResult `json:"workloads"`
	// Probes are the P metrics: workload-independent, measured once.
	Probes map[string]stat `json:"probes,omitempty"`
}

func (rs *resultSet) problems() []string {
	var out []string
	for _, w := range rs.Workloads {
		out = append(out, w.Problems...)
	}
	return out
}

func readHost() hostInfo {
	h := hostInfo{Nproc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Not a git checkout (the driver's copy is not): the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// runner spawns the child processes. Every repetition is a fresh process
// re-executing this binary, so no run inherits another's heap, caches or
// GC pacing, and rusage gives each run's own peak RSS.
type runner struct {
	exe   string
	quick bool
	log   io.Writer
}

func newRunner(quick bool, log io.Writer) (*runner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return &runner{exe: exe, quick: quick, log: log}, nil
}

// child runs one child to completion and returns its report, with the
// two metrics only the parent can see (setup_s, peak_rss_mb) filled in.
func (r *runner) child(name string, seed int64, extra ...string) (*childReport, error) {
	args := append([]string{"child", name, "-seed", fmt.Sprint(seed)}, extra...)
	if r.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(r.exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	launched := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s: %w", name, err)
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("child %s: bad report: %w", name, err)
	}
	if rep.Values == nil { // the probes report batches, not values
		rep.Values = map[string]float64{}
	}
	if rep.StartedAt != 0 {
		rep.Values["setup_s"] = float64(rep.StartedAt-launched.UnixNano()) / 1e9
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.Values["peak_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6 // ru_maxrss is in KiB on Linux
	}
	return &rep, nil
}

// measure runs untraced repetitions of one workload until more(done,
// lastTook) says stop, and summarises them. With sets > 1 it fills that
// many result sets in turn (A, B, A, B, ...), so that slow drift in the
// host's speed falls on every set alike.
func (r *runner) measure(name string, seed int64, sets int, more func(done int, lastTook time.Duration) bool) ([]*workloadResult, error) {
	reps := make([][]*childReport, sets)
	for done := 0; ; {
		start := time.Now()
		for s := range reps {
			rep, err := r.child(name, seed)
			if err != nil {
				return nil, err
			}
			reps[s] = append(reps[s], rep)
			fmt.Fprintf(r.log, "  %s rep %d: wall %.2fs cpu %.2fs rss %.0fMB setup %.3fs\n", name, len(reps[s]),
				rep.Values["wall_s"], rep.Values["cpu_s"], rep.Values["peak_rss_mb"], rep.Values["setup_s"])
		}
		if done++; !more(done, time.Since(start)) {
			break
		}
	}
	out := make([]*workloadResult, sets)
	for s := range out {
		out[s] = summarise(name, reps[s])
	}
	return out, nil
}

func fixedReps(n int) func(int, time.Duration) bool {
	return func(done int, _ time.Duration) bool { return done < n }
}

// summarise folds repetitions into one result: host metrics become
// median/min/max, deterministic values are taken from the first
// repetition, and any repetition whose digest differs is a correctness
// failure.
func summarise(name string, reps []*childReport) *workloadResult {
	first := reps[0]
	w := &workloadResult{Name: name, Seed: first.Seed, Digest: first.Digest, Detail: first.Detail,
		Attempted: first.Attempted, Failed: first.Failed,
		EndToEnd: map[string]stat{}, PerLayer: map[string]stat{}}
	seen := map[string]bool{}
	for i, rep := range reps {
		if rep.Digest != first.Digest {
			w.Problems = append(w.Problems, fmt.Sprintf("%s: repetition %d digest %s differs from %s (same seed must repeat exactly)", name, i+1, rep.Digest, first.Digest))
		}
		for _, p := range rep.Problems {
			if !seen[p] {
				seen[p] = true
				w.Problems = append(w.Problems, p)
			}
		}
	}
	column := func(metric string) (vals []float64) {
		for _, rep := range reps {
			if v, ok := rep.Values[metric]; ok {
				vals = append(vals, v)
			}
		}
		return vals
	}
	for _, m := range endToEnd() {
		if vals := column(m.Name); len(vals) > 0 {
			s := newStat(m.Unit, vals)
			s.Samples = first.Samples[m.Name]
			w.EndToEnd[m.Name] = s
		}
	}
	for _, m := range perLayer {
		if vals := column(m.Name); len(vals) > 0 {
			w.PerLayer[m.Name] = newStat(m.Unit, vals)
		}
	}
	w.setups = column("setup_s")
	return w
}

// setupOnly runs one child that stops where the timed call would begin
// and returns its setup_s.
func (r *runner) setupOnly(name string, seed int64) (float64, error) {
	rep, err := r.child(name, seed, "-setup-only")
	if err != nil {
		return 0, err
	}
	return rep.Values["setup_s"], nil
}

// trace is the traced pass for one workload: one extra repetition under
// the CPU profiler gives the cost stack, and the wall-clock ratio to the
// untraced median is the profiler's own overhead. For week_diurnal a
// further repetition with the program's causal tracing armed on every
// session gives obs.trace_overhead. Both must reproduce the untraced
// digest.
func (r *runner) trace(w *workloadResult, seed int64) error {
	set := func(metric string, v float64) {
		m, _ := findMetric(perLayer, metric)
		w.PerLayer[metric] = newStat(m.Unit, []float64{v})
	}
	sameDigest := func(pass string, rep *childReport) {
		if rep.Digest != w.Digest {
			w.Problems = append(w.Problems, fmt.Sprintf("%s: %s pass digest %s differs from untraced %s", w.Name, pass, rep.Digest, w.Digest))
		}
	}
	base := w.EndToEnd["wall_s"].Median

	rep, err := r.child(w.Name, seed, "-profile", filepath.Join(outDir, w.Name+".pprof"))
	if err != nil {
		return err
	}
	sameDigest("profiled", rep)
	for _, m := range perLayer {
		if v, ok := rep.Values[m.Name]; ok && m.Source == srcStack {
			set(m.Name, v)
		}
	}
	set("harness.profile_overhead", rep.Values["wall_s"]/base)
	fmt.Fprintf(r.log, "  %s profiled: wall %.2fs (×%.3f)\n", w.Name, rep.Values["wall_s"], rep.Values["wall_s"]/base)

	if w.Name == "week_diurnal" {
		rep, err := r.child(w.Name, seed, "-trace-every", "1")
		if err != nil {
			return err
		}
		sameDigest("causal-traced", rep)
		set("obs.trace_overhead", rep.Values["wall_s"]/base)
		set("obs.trace_spans", rep.Values["obs.trace_spans"])
		set("obs.trace_dropped", rep.Values["obs.trace_dropped"])
		fmt.Fprintf(r.log, "  %s causal tracing on: wall %.2fs (×%.3f)\n", w.Name, rep.Values["wall_s"], rep.Values["wall_s"]/base)
	}
	return nil
}

// probes runs the P metrics in their own fresh process.
func (r *runner) probes() (map[string]stat, error) {
	rep, err := r.child("probes", 0)
	if err != nil {
		return nil, err
	}
	out := map[string]stat{}
	for _, m := range perLayer {
		if batches := rep.Batches[m.Name]; len(batches) > 0 {
			out[m.Name] = newStat(m.Unit, batches)
		}
	}
	return out, nil
}

// refLoop times SHA-256 over a fixed 64 MiB buffer (4 MiB at smoke size),
// five passes, and returns the fastest pass in ms: a fixed amount of pure
// CPU work whose duration normalises two hosts and exposes one whose
// speed changed during a set. Single passes jitter by ±8 % on a shared
// host; the fastest of five repeats within ~3 %.
func refLoop(quick bool) float64 {
	size := 64 << 20
	if quick {
		size = 4 << 20
	}
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	best := math.Inf(1)
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		sha256.Sum256(buf)
		best = min(best, float64(time.Since(start))/float64(time.Millisecond))
	}
	return best
}

// runSets is `benchmark run` (one set) and `selfcheck` (two): every
// workload, reps fresh processes per set with the sets' repetitions
// interleaved, bracketed by the reference loop.
func runSets(sets int, seed int64, reps int, traced, quick bool, log io.Writer) ([]*resultSet, error) {
	r, err := newRunner(quick, log)
	if err != nil {
		return nil, err
	}
	before := refLoop(quick)
	out := make([]*resultSet, sets)
	for s := range out {
		out[s] = &resultSet{Host: readHost(), Seed: seed, Reps: reps, Quick: quick}
	}
	for _, spec := range workloads {
		fmt.Fprintf(log, "%s:\n", spec.Name)
		ws, err := r.measure(spec.Name, seed, sets, fixedReps(reps))
		if err != nil {
			return nil, err
		}
		for s, w := range ws {
			if traced {
				if err := r.trace(w, seed); err != nil {
					return nil, err
				}
			}
			out[s].Workloads = append(out[s].Workloads, *w)
		}
	}
	for _, rs := range out {
		if traced {
			fmt.Fprintln(log, "probes:")
			if rs.Probes, err = r.probes(); err != nil {
				return nil, err
			}
		}
	}
	after := refLoop(quick)
	for _, rs := range out {
		rs.RefLoopMS = [2]float64{before, after}
		rs.Noisy = max(before, after) > 1.10*min(before, after)
	}
	return out, nil
}

// printSet prints every metric by name with unit, median, min/max and n.
func printSet(w io.Writer, rs *resultSet) {
	h := rs.Host
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s\n", h.Nproc, h.GoMaxProcs, h.GoVersion, h.CPUModel, h.Commit)
	fmt.Fprintf(w, "seed=%d reps=%d quick=%v ref_loop_ms=%.2f→%.2f noisy=%v\n", rs.Seed, rs.Reps, rs.Quick, rs.RefLoopMS[0], rs.RefLoopMS[1], rs.Noisy)
	row := func(name string, s stat) {
		samples := ""
		if s.Samples > 0 {
			samples = fmt.Sprintf("  samples=%d", s.Samples)
		}
		fmt.Fprintf(w, "  %-28s %-6s median %-14.6g min %-14.6g max %-14.6g n=%d%s\n", name, s.Unit, s.Median, s.Min, s.Max, s.N, samples)
	}
	table := func(specs []metric, vals map[string]stat) {
		for _, m := range specs {
			if s, ok := vals[m.Name]; ok {
				row(m.Name, s)
			}
		}
	}
	loops := map[string]string{}
	for _, spec := range workloads {
		loops[spec.Name] = spec.Loop
	}
	for _, wl := range rs.Workloads {
		fmt.Fprintf(w, "\n== %s  seed=%d  digest=%s  operations %d attempted, %d failed\n   %s\n   %s\n", wl.Name, wl.Seed, wl.Digest, wl.Attempted, wl.Failed, loops[wl.Name], wl.Detail)
		fmt.Fprintln(w, " end-to-end:")
		table(endToEnd(), wl.EndToEnd)
		fmt.Fprintln(w, " per-layer:")
		table(perLayer, wl.PerLayer)
		for _, p := range wl.Problems {
			fmt.Fprintf(w, " FAILED CHECK: %s\n", p)
		}
	}
	if len(rs.Probes) > 0 {
		fmt.Fprintln(w, "\n== probes (idle deployment; n batches each)")
		table(perLayer, rs.Probes)
	}
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}
