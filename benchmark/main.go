// Command benchmark is the repository's performance benchmark: four
// workloads, host and simulated end-to-end metrics, and a per-layer cost
// stack that sums. See README.md in this directory.
//
//	go run ./benchmark run -seed 1 -reps 3 [-trace] [-out FILE]   every workload, every metric
//	go run ./benchmark compare A.json B.json                      deltas against the bounds
//	go run ./benchmark selfcheck                                  two interleaved sets of the same code, compared
//	go run ./benchmark manifest > BENCHMARK.json                  regenerate the driver manifest
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//	                                                              one workload, one JSON line (driver contract)
//
// Every repetition runs in a fresh child process (`benchmark child ...`,
// this binary re-executing itself).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// errFailed marks a run that completed but failed a check: the output
// has already said why.
var errFailed = errors.New("benchmark failed")

func main() {
	if err := dispatch(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errFailed) {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		os.Exit(1)
	}
}

func dispatch(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: benchmark run|compare|selfcheck ... or --workload W --seed N --seconds S --trace 0|1")
	}
	switch args[0] {
	case "child":
		return runChild(args[1:], stdout)
	case "run":
		return cmdRun(args[1:], stdout)
	case "compare":
		return cmdCompare(args[1:], stdout)
	case "selfcheck":
		return cmdSelfcheck(args[1:], stdout)
	case "manifest":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(buildManifest())
	}
	return cmdDriver(args, stdout)
}

// setFlags are the flags `run` and `selfcheck` share.
type setFlags struct {
	seed  *int64
	reps  *int
	trace *bool
	quick *bool
}

func addSetFlags(fs *flag.FlagSet) setFlags {
	return setFlags{
		seed:  fs.Int64("seed", 1, "workload seed (also check claims on one not used during development, e.g. 7)"),
		reps:  fs.Int("reps", 3, "fresh-process repetitions per workload"),
		trace: fs.Bool("trace", false, "add the traced pass: cost stack, counters' overheads and probes"),
		quick: fs.Bool("quick", false, "smoke-test sizes (seconds, not minutes; numbers mean nothing)"),
	}
}

func (f setFlags) run(sets int, log io.Writer) ([]*resultSet, error) {
	if *f.reps < 1 {
		return nil, fmt.Errorf("-reps must be at least 1")
	}
	return runSets(sets, *f.seed, *f.reps, *f.trace, *f.quick, log)
}

func cmdRun(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	sf := addSetFlags(fs)
	out := fs.String("out", filepath.Join(outDir, "results.json"), "where to write the result set")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sets, err := sf.run(1, os.Stderr)
	if err != nil {
		return err
	}
	rs := sets[0]
	printSet(stdout, rs)
	if err := writeJSON(*out, rs); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", *out)
	if n := len(rs.problems()); n > 0 {
		fmt.Fprintf(stdout, "%d correctness checks FAILED\n", n)
		return errFailed
	}
	return nil
}

func cmdCompare(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: benchmark compare A.json B.json")
	}
	a, err := readSet(args[0])
	if err != nil {
		return err
	}
	b, err := readSet(args[1])
	if err != nil {
		return err
	}
	if n := compareSets(stdout, a, b, false); n > 0 {
		fmt.Fprintf(stdout, "\n%d regressions\n", n)
		return errFailed
	}
	fmt.Fprintln(stdout, "\nno regressions")
	return nil
}

// cmdSelfcheck takes two full sets of the same code and feeds them to
// compare: they must agree within the benchmark's own bounds, and
// exactly on everything simulated. The two sets' repetitions alternate,
// as paired measurements should: on a shared host the speed drifts by
// 10–25 % over minutes, and two sets taken one after the other would
// "regress" or "improve" on nothing but that.
func cmdSelfcheck(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	sf := addSetFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sets, err := sf.run(2, os.Stderr)
	if err != nil {
		return err
	}
	failed := 0
	for i, rs := range sets {
		if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("selfcheck_%d.json", i+1)), rs); err != nil {
			return err
		}
		for _, p := range rs.problems() {
			fmt.Fprintf(stdout, "FAILED CHECK: %s\n", p)
			failed++
		}
	}
	failed += compareSets(stdout, sets[0], sets[1], true)
	if failed > 0 {
		fmt.Fprintf(stdout, "\nselfcheck FAILED (%d)\n", failed)
		return errFailed
	}
	fmt.Fprintln(stdout, "\nselfcheck ok: two sets of the same code agree")
	return nil
}

// driverLine is the one JSON object the driver reads from the last line
// of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverSetups is how many set-up samples stand behind the driver line's
// setup_s: where fewer repetitions fit the time, set-up-only children
// make up the number.
const driverSetups = 5

// cmdDriver is the driver contract: one workload, measured for about
// --seconds, one JSON line. With --trace 0 the line carries every
// end_to_end metric of BENCHMARK.json as the median over as many
// fresh-process repetitions as fit the time; with --trace 1 every
// per_layer metric from one untraced repetition, the traced pass and the
// probes (0 where the workload cannot observe the metric).
func cmdDriver(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "how long to measure")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	quick := fs.Bool("quick", false, "smoke-test sizes (tests only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := workloadFuncs[*name]; !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	r, err := newRunner(*quick, os.Stderr)
	if err != nil {
		return err
	}
	line := driverLine{Metrics: map[string]driverValue{}}
	var w *workloadResult
	if *traced == 0 {
		begin, budget := time.Now(), time.Duration(*seconds)*time.Second
		// Repeat while another repetition as long as the last still fits.
		ws, err := r.measure(*name, *seed, 1, func(_ int, last time.Duration) bool {
			return time.Since(begin)+last <= budget
		})
		if err != nil {
			return err
		}
		w = ws[0]
		for len(w.setups) < driverSetups {
			v, err := r.setupOnly(*name, *seed)
			if err != nil {
				return err
			}
			w.setups = append(w.setups, v)
		}
		w.EndToEnd["setup_s"] = newStat("s", w.setups)
		for _, m := range hostMetrics {
			s, ok := w.EndToEnd[m.Name]
			if !ok {
				return fmt.Errorf("%s did not report %s", *name, m.Name)
			}
			line.Metrics[m.Name] = driverValue{s.Median, m.Unit}
		}
	} else {
		ws, err := r.measure(*name, *seed, 1, fixedReps(1))
		if err != nil {
			return err
		}
		w = ws[0]
		if err := r.trace(w, *seed); err != nil {
			return err
		}
		probes, err := r.probes()
		if err != nil {
			return err
		}
		for _, m := range driverPerLayer() {
			v := driverValue{Unit: m.Unit}
			for _, from := range []map[string]stat{w.PerLayer, probes, w.EndToEnd} {
				if s, ok := from[m.Name]; ok {
					v.Value = s.Median
				}
			}
			line.Metrics[m.Name] = v
		}
	}
	for _, p := range w.Problems {
		fmt.Fprintln(os.Stderr, "FAILED CHECK:", p)
	}
	line.Correct = len(w.Problems) == 0
	line.Attempted, line.Failed = w.Attempted, w.Failed
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		return err
	}
	if !line.Correct {
		return errFailed
	}
	return nil
}
