// Command drmsim regenerates the paper's evaluation artifacts on the
// simulated deployment:
//
//	drmsim -fig 5a          Fig 5(a): login latency vs concurrent users
//	drmsim -fig 5b          Fig 5(b): channel-switch latency vs users
//	drmsim -fig 5c          Fig 5(c): join latency vs users
//	drmsim -fig 6           Fig 6: latency CDFs, peak vs off-peak
//	drmsim -fig corr        §VI Pearson correlation coefficients
//	drmsim -fig baseline    §I motivation: central license server vs DRM
//	drmsim -fig farm        §V: manager farm scaling
//	drmsim -fig churn       churn resilience of the overlay
//	drmsim -fig zap         channel-switch latency vs the §II 3s bar
//	drmsim -fig rekey       §IV-E re-key interval ablation
//	drmsim -fig faults      flash crowd with injected faults (crash, loss, partition)
//	drmsim -fig scaleout    elastic farm: crowd grows 10×, members added live via resharding
//	drmsim -fig megascale   engine capacity: virtual-viewer sweep up to -mega viewers
//	                        over -shards worker lanes (results byte-identical at any count)
//	drmsim -fig timeshift   time-shifted viewing: key availability vs seek depth,
//	                        rights-conformance verdict over a mid-event lapse
//	drmsim -fig adversary   adversarial DRM: re-key storm, free-riders, ticket replay
//	drmsim -fig all         everything above
//
// The week-long trace (figs 5/6/corr) simulates -days of diurnal traffic
// and is scaled by -peak (sessions/hour at the evening peak), -channels
// and -users. Absolute numbers differ from the 2008 production
// deployment; the shapes are the reproduction target.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"p2pdrm/internal/exp"
	"p2pdrm/internal/feedback"
	"p2pdrm/internal/obs"
	"p2pdrm/internal/svc"
)

// figs enumerates every valid -fig value; an unknown value is an error,
// not a silent no-op run.
var figs = []string{"5a", "5b", "5c", "6", "corr", "baseline", "farm", "churn", "zap", "rekey", "faults", "scaleout", "megascale", "timeshift", "adversary", "all"}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "drmsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("drmsim", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", "figure to regenerate: "+strings.Join(figs, "|"))
		seed     = fs.Int64("seed", 1, "simulation seed")
		days     = fs.Int("days", 7, "trace length in days (figs 5/6/corr)")
		channels = fs.Int("channels", 24, "deployed channels")
		users    = fs.Int("users", 1200, "registered accounts")
		peak     = fs.Float64("peak", 400, "session arrivals/hour at the diurnal peak")
		viewers  = fs.String("viewers", "50,200,800", "flash-crowd sizes (baseline)")
		farms    = fs.String("farms", "1,2,4,8", "farm sizes (farm scaling)")
		mega     = fs.String("mega", "50000,200000,1000000", "virtual-viewer sweep sizes (megascale)")
		shards   = fs.Int("shards", 1, "worker lanes carrying the megascale virtual population (>= 1)")
		metrics  = fs.String("metrics", "", "directory for CSV/JSONL metric exports (empty = no exports)")
		traceDir = fs.String("trace", "", "directory for causal-trace exports: <fig>_trace_events.json (Perfetto/chrome://tracing), _waterfall.txt, _critical_path.csv; arms week tracing (empty = no trace exports)")
		traceEvN = fs.Int("traceevery", 10, "head-sample 1 in N week sessions when -trace is set (faults/scaleout trace every viewer)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	valid := false
	for _, f := range figs {
		if *fig == f {
			valid = true
		}
	}
	if !valid {
		return fmt.Errorf("unknown -fig %q (valid: %s)", *fig, strings.Join(figs, ", "))
	}
	if *shards < 1 {
		return fmt.Errorf("bad -shards %d (want >= 1)", *shards)
	}
	var out outputs
	var err error
	if out.metrics, err = newExporter(*metrics); err != nil {
		return err
	}
	if out.trace, err = newExporter(*traceDir); err != nil {
		return err
	}

	wantWeek := false
	for _, f := range []string{"5a", "5b", "5c", "6", "corr", "all"} {
		if *fig == f {
			wantWeek = true
		}
	}

	var week *exp.WeekResult
	if wantWeek {
		fmt.Fprintf(os.Stderr, "running %d-day trace (seed=%d, peak=%.0f sessions/h)...\n",
			*days, *seed, *peak)
		start := time.Now()
		var err error
		weekCfg := exp.WeekConfig{
			Seed:                *seed,
			Days:                *days,
			Channels:            *channels,
			Users:               *users,
			PeakSessionsPerHour: *peak,
		}
		if out.trace != nil {
			weekCfg.TraceEvery = *traceEvN
		}
		week, err = exp.RunWeek(weekCfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace done in %v: %d sessions, %d feedback logs, peak %d concurrent\n",
			time.Since(start).Round(time.Second), week.Sessions, week.Corpus.Logs(), week.PeakConcurrent)
		if err := out.exportArtifacts("week", nil, week.Endpoints, week.Calls, week.Series, week.Trace); err != nil {
			return err
		}
		if week.Trace != nil {
			fmt.Println(exp.RenderJourneyBreakdown(week.Trace))
		}
	}

	show := func(f string) bool { return *fig == f || *fig == "all" }

	if show("5a") {
		fmt.Println(exp.RenderFig5(week, "Fig 5(a) login protocol", feedback.Login1, feedback.Login2))
	}
	if show("5b") {
		fmt.Println(exp.RenderFig5(week, "Fig 5(b) channel switching protocol", feedback.Switch1, feedback.Switch2))
	}
	if show("5c") {
		fmt.Println(exp.RenderFig5(week, "Fig 5(c) join protocol", feedback.Join))
	}
	if show("6") {
		for _, r := range feedback.Rounds {
			fmt.Println(exp.RenderFig6(week, r, 0, 21))
		}
	}
	if show("corr") {
		fmt.Println(exp.RenderCorrelations(week))
	}
	if show("baseline") {
		counts, err := parseInts(*viewers)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "running flash-crowd sweep %v...\n", counts)
		pts, err := exp.RunFlashSweep(exp.FlashConfig{Seed: *seed, Spread: 5 * time.Second, Workers: 1, ServiceMS: 10}, counts)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderFlashSweep(pts))
		for _, p := range pts {
			p := p
			if err := out.metrics.write(fmt.Sprintf("baseline_%d_trad_endpoints.csv", p.Viewers),
				func(w io.Writer) error { return exp.WriteEndpointsCSV(w, p.Trad.Endpoints) }); err != nil {
				return err
			}
			if err := out.metrics.write(fmt.Sprintf("baseline_%d_drm_endpoints.csv", p.Viewers),
				func(w io.Writer) error { return exp.WriteEndpointsCSV(w, p.DRM.Endpoints) }); err != nil {
				return err
			}
		}
	}
	if show("churn") {
		fmt.Fprintln(os.Stderr, "running churn study...")
		res, err := exp.RunChurn(exp.ChurnConfig{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderChurn(res))
	}
	if show("zap") {
		fmt.Fprintln(os.Stderr, "running zap study...")
		res, err := exp.RunZap(exp.ZapConfig{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderZap(res))
	}
	if show("rekey") {
		fmt.Fprintln(os.Stderr, "running re-key ablation...")
		pts, err := exp.RunRekeyAblation(exp.RekeyConfig{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderRekey(pts))
	}
	if show("faults") {
		fmt.Fprintln(os.Stderr, "running faulty flash crowd...")
		res, err := exp.RunFaultFlash(exp.FaultFlashConfig{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderFaultFlash(res))
		if err := out.exportArtifacts("faults", res.Phases, res.Endpoints, res.Calls, res.Series, res.Trace); err != nil {
			return err
		}
		if out.trace != nil {
			fmt.Println(exp.RenderJourneyBreakdown(res.Trace))
		}
	}
	if show("scaleout") {
		fmt.Fprintln(os.Stderr, "running elastic scale-out sweep...")
		res, err := exp.RunScaleOut(exp.ScaleOutConfig{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderScaleOut(res))
		if err := out.exportArtifacts("scaleout", res.Phases, res.Endpoints, res.Calls, res.Series, res.Trace); err != nil {
			return err
		}
	}
	if show("megascale") {
		counts, err := parseInts(*mega)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "running megascale sweep %v (shards=%d)...\n", counts, *shards)
		pts := make([]*exp.MegaResult, 0, len(counts))
		for i, n := range counts {
			cfg := exp.MegaConfig{Seed: *seed, Viewers: n, Shards: *shards}
			var files []*os.File
			if i == len(counts)-1 {
				// Only the largest point streams: per-point files for
				// every sweep size would drown the export directory.
				csvF, err := out.metrics.create("megascale_series.csv")
				if err != nil {
					return err
				}
				jslF, err := out.metrics.create("megascale_series.jsonl")
				if err != nil {
					return err
				}
				if csvF != nil {
					cfg.MetricsCSV = csvF
					files = append(files, csvF)
				}
				if jslF != nil {
					cfg.MetricsJSONL = jslF
					files = append(files, jslF)
				}
			}
			res, err := exp.RunMegaScale(cfg)
			for _, f := range files {
				if cerr := f.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}
			if err != nil {
				return err
			}
			pts = append(pts, res)
		}
		fmt.Println(exp.RenderMega(pts))
	}
	if show("timeshift") {
		fmt.Fprintln(os.Stderr, "running time-shifted viewing scenario...")
		res, err := exp.RunTimeShift(exp.TimeShiftConfig{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderTimeShift(res))
		if err := out.exportArtifacts("timeshift", res.Phases, res.Endpoints, res.Calls, res.Series, res.Trace); err != nil {
			return err
		}
	}
	if show("adversary") {
		fmt.Fprintln(os.Stderr, "running adversarial DRM scenario...")
		res, err := exp.RunAdversary(exp.AdversaryConfig{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderAdversary(res))
		if err := out.exportArtifacts("adversary", res.Phases, res.Endpoints, res.Calls, res.Series, res.Trace); err != nil {
			return err
		}
	}
	if show("farm") {
		sizes, err := parseInts(*farms)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "running farm scaling %v...\n", sizes)
		pts, err := exp.RunFarmScaling(exp.FarmConfig{Seed: *seed, FarmSizes: sizes})
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderFarm(pts))
		for _, p := range pts {
			p := p
			if err := out.metrics.write(fmt.Sprintf("farm_%d_endpoints.csv", p.Farm),
				func(w io.Writer) error { return exp.WriteEndpointsCSV(w, p.Endpoints) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// exporter writes metric files under one directory. A nil exporter (no
// -metrics flag) skips every export, so the figure paths stay untouched.
type exporter struct{ dir string }

func newExporter(dir string) (*exporter, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &exporter{dir: dir}, nil
}

func (e *exporter) write(name string, fill func(w io.Writer) error) error {
	if e == nil {
		return nil
	}
	path := filepath.Join(e.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
	return nil
}

// create opens a file for streaming writes during a run (a nil exporter
// returns a nil file: no export). The caller owns closing it.
func (e *exporter) create(name string) (*os.File, error) {
	if e == nil {
		return nil, nil
	}
	path := filepath.Join(e.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "streaming", path)
	return f, nil
}

// outputs pairs the -metrics and -trace export directories; either may
// be nil (flag unset), which skips its files.
type outputs struct{ metrics, trace *exporter }

// exportArtifacts writes one figure's exports under the common naming
// scheme: <prefix>_{phases,endpoints,calls,series}.csv and
// <prefix>_trace.jsonl into the -metrics directory, the causal-trace
// artifacts into the -trace directory. A part the figure does not have
// is passed as nil and skipped.
func (o outputs) exportArtifacts(prefix string, phases []exp.Phase, endpoints map[string]svc.Metrics, calls map[string]svc.CallStats, series *obs.Series, trace *obs.Trace) error {
	parts := []struct {
		name string
		have bool
		fill func(io.Writer) error
	}{
		{"_phases.csv", phases != nil, func(w io.Writer) error { return exp.WritePhasesCSV(w, phases) }},
		{"_endpoints.csv", endpoints != nil, func(w io.Writer) error { return exp.WriteEndpointsCSV(w, endpoints) }},
		{"_calls.csv", calls != nil, func(w io.Writer) error { return exp.WriteCallsCSV(w, calls) }},
		{"_series.csv", series != nil, series.WriteCSV},
		{"_trace.jsonl", trace != nil, trace.WriteJSONL},
	}
	for _, p := range parts {
		if !p.have {
			continue
		}
		if err := o.metrics.write(prefix+p.name, p.fill); err != nil {
			return err
		}
	}
	return o.trace.exportTrace(prefix, trace)
}

// exportTrace writes one figure's causal-trace artifacts: the Chrome
// trace_event JSON (load at ui.perfetto.dev), the rendered per-viewer
// waterfalls, and the flattened critical-path CSV.
func (e *exporter) exportTrace(prefix string, t *obs.Trace) error {
	if e == nil || t == nil {
		return nil
	}
	if err := e.write(prefix+"_trace_events.json", func(w io.Writer) error {
		return exp.WriteTraceEvents(w, t)
	}); err != nil {
		return err
	}
	if err := e.write(prefix+"_waterfall.txt", func(w io.Writer) error {
		return exp.WriteWaterfalls(w, t)
	}); err != nil {
		return err
	}
	return e.write(prefix+"_critical_path.csv", func(w io.Writer) error {
		return exp.WriteCriticalPathCSV(w, t)
	})
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad integer %q in list %q", part, csv)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty integer list")
	}
	return out, nil
}
