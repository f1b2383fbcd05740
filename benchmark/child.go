package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// childReport is the single JSON line a child process prints: one timed
// call of one workload, measured from inside a fresh process so that no
// repetition inherits another's heap, caches or GC pacing.
type childReport struct {
	Workload string `json:"workload"`
	// Seed is the seed the workload ran (see workloadResult.Seed).
	Seed   int64              `json:"seed"`
	Values map[string]float64 `json:"values,omitempty"`
	// Batches holds the probes' per-batch readings (`child probes` only).
	Batches   map[string][]float64 `json:"batches,omitempty"`
	Samples   map[string]int64     `json:"samples,omitempty"`
	Digest    string               `json:"digest"`
	Detail    string               `json:"detail"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
	// StartedAt is when the timed call began (Unix ns); the parent
	// subtracts its own pre-exec timestamp to get setup_s.
	StartedAt int64 `json:"started_at"`
}

func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// runChild is `benchmark child <workload> -seed N ...`.
func runChild(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("child: workload name required")
	}
	name := args[0]
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	quick := fs.Bool("quick", false, "smoke-test sizes")
	profile := fs.String("profile", "", "write a CPU profile of the timed call here and report the cost stack")
	traceEvery := fs.Int("trace-every", 0, "arm the program's causal tracing (week_diurnal)")
	setupOnly := fs.Bool("setup-only", false, "stop where the timed call would begin (one more setup_s sample)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if name == "probes" {
		return runProbes(*quick, stdout)
	}
	wl, ok := workloadFuncs[name]
	if !ok {
		return fmt.Errorf("child: unknown workload %q", name)
	}

	rep := childReport{Workload: name}
	timed, err := wl(params{Seed: *seed, Quick: *quick, TraceEvery: *traceEvery})
	if err != nil {
		return fmt.Errorf("%s set-up: %w", name, err)
	}
	runtime.GC() // the timed call starts from a collected heap
	if *setupOnly {
		rep.StartedAt = time.Now().UnixNano()
		return json.NewEncoder(stdout).Encode(rep)
	}

	var prof *os.File
	if *profile != "" {
		if prof, err = os.Create(*profile); err != nil {
			return err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return fmt.Errorf("start profile: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuSeconds()
	if err != nil {
		return err
	}
	start := time.Now()
	out, err := timed()
	wall := time.Since(start)
	cpu1, cpuErr := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if cpuErr != nil {
		return cpuErr
	}

	rep.StartedAt = start.UnixNano()
	rep.Seed, rep.Values, rep.Samples = out.Seed, out.Values, out.Samples
	rep.Digest, rep.Detail = out.digest(), out.Detail
	rep.Attempted, rep.Failed, rep.Problems = out.Attempted, out.Failed, out.Problems
	rep.Values["wall_s"] = wall.Seconds()
	rep.Values["cpu_s"] = cpu1 - cpu0
	rep.Values["alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	rep.Values["allocs_k"] = float64(m1.Mallocs-m0.Mallocs) / 1e3
	rep.Values["go_runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	if prof != nil {
		if err := prof.Sync(); err != nil {
			return err
		}
		stackVals, err := costStackFile(*profile)
		if err != nil {
			return err
		}
		var parts float64
		for k, v := range stackVals {
			rep.Values[k] = v
			parts += v
		}
		if cpu := rep.Values["cpu_s"]; cpu > 0 {
			rep.Values["harness.unattributed_frac"] = math.Abs(cpu-parts) / cpu
		}
	}
	return json.NewEncoder(stdout).Encode(rep)
}
