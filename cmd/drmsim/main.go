// Command drmsim regenerates the paper's evaluation artifacts on the
// simulated deployment. `drmsim -h` lists the figures and the flags.
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
)

// figure is one -fig value. The table below is the only place figure
// names live: the usage text, the unknown-value error, `-fig all` and the
// export call all walk it, in this order.
type figure struct {
	name, about string
	// run prints the figure and returns the observability bundle to
	// export under the figure's name (nil when it has none, or writes its
	// own files).
	run func(*env) (*exp.Artifacts, error)
}

var figures = []figure{
	{"5a", "Fig 5(a): login latency vs concurrent users", weekFigure(func(w *exp.WeekResult) string {
		return exp.RenderFig5(w, "Fig 5(a) login protocol", feedback.Login1, feedback.Login2)
	})},
	{"5b", "Fig 5(b): channel-switch latency vs users", weekFigure(func(w *exp.WeekResult) string {
		return exp.RenderFig5(w, "Fig 5(b) channel switching protocol", feedback.Switch1, feedback.Switch2)
	})},
	{"5c", "Fig 5(c): join latency vs users", weekFigure(func(w *exp.WeekResult) string {
		return exp.RenderFig5(w, "Fig 5(c) join protocol", feedback.Join)
	})},
	{"6", "Fig 6: latency CDFs, peak vs off-peak", weekFigure(func(w *exp.WeekResult) string {
		cdfs := make([]string, len(feedback.Rounds))
		for i, r := range feedback.Rounds {
			cdfs[i] = exp.RenderFig6(w, r, 0, 21)
		}
		return strings.Join(cdfs, "\n")
	})},
	{"corr", "§VI Pearson correlation coefficients", weekFigure(exp.RenderCorrelations)},
	{"baseline", "§I motivation: central license server vs DRM, at -viewers crowd sizes", baseline},
	{"churn", "churn resilience of the overlay", func(e *env) (*exp.Artifacts, error) {
		res, err := exp.RunChurn(exp.ChurnConfig{Seed: e.seed})
		if err != nil {
			return nil, err
		}
		fmt.Println(exp.RenderChurn(res))
		return &res.Artifacts, nil
	}},
	{"zap", "channel-switch latency vs the §II 3s bar", func(e *env) (*exp.Artifacts, error) {
		res, err := exp.RunZap(exp.ZapConfig{Seed: e.seed})
		if err != nil {
			return nil, err
		}
		fmt.Println(exp.RenderZap(res))
		return &res.Artifacts, nil
	}},
	{"rekey", "§IV-E re-key interval ablation", func(e *env) (*exp.Artifacts, error) {
		pts, err := exp.RunRekeyAblation(exp.RekeyConfig{Seed: e.seed})
		if err != nil {
			return nil, err
		}
		fmt.Println(exp.RenderRekey(pts))
		return nil, nil
	}},
	{"faults", "flash crowd with injected faults (crash, loss, partition)", func(e *env) (*exp.Artifacts, error) {
		res, err := exp.RunFaultFlash(exp.FaultFlashConfig{Seed: e.seed})
		if err != nil {
			return nil, err
		}
		fmt.Println(exp.RenderFaultFlash(res))
		if e.out.trace != nil {
			fmt.Println(exp.RenderJourneyBreakdown(res.Trace))
		}
		return &res.Artifacts, nil
	}},
	{"scaleout", "elastic farm: crowd grows 10×, members added live via resharding", func(e *env) (*exp.Artifacts, error) {
		res, err := exp.RunScaleOut(exp.ScaleOutConfig{Seed: e.seed})
		if err != nil {
			return nil, err
		}
		fmt.Println(exp.RenderScaleOut(res))
		return &res.Artifacts, nil
	}},
	{"megascale", "engine capacity: virtual-viewer sweep up to -mega viewers over -shards worker lanes (results byte-identical at any count)", megascale},
	{"timeshift", "time-shifted viewing: key availability vs seek depth, rights-conformance verdict over a mid-event lapse", func(e *env) (*exp.Artifacts, error) {
		res, err := exp.RunTimeShift(exp.TimeShiftConfig{Seed: e.seed})
		if err != nil {
			return nil, err
		}
		fmt.Println(exp.RenderTimeShift(res))
		return &res.Artifacts, nil
	}},
	{"adversary", "adversarial DRM: re-key storm, free-riders, ticket replay", func(e *env) (*exp.Artifacts, error) {
		res, err := exp.RunAdversary(exp.AdversaryConfig{Seed: e.seed})
		if err != nil {
			return nil, err
		}
		fmt.Println(exp.RenderAdversary(res))
		return &res.Artifacts, nil
	}},
	{"farm", "§V: manager farm scaling, at -farms sizes", farm},
}

// figureNames lists every valid -fig value.
func figureNames() []string {
	names := make([]string, 0, len(figures)+1)
	for _, f := range figures {
		names = append(names, f.name)
	}
	return append(names, "all")
}

// env is what a figure runs against: the flag values and the export
// directories, plus the week trace the five week figures share.
type env struct {
	seed                  int64
	days, channels, users int
	peak                  float64
	viewers, farms, mega  string
	shards, traceEvery    int
	out                   outputs
	weekRes               *exp.WeekResult
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "drmsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("drmsim", flag.ContinueOnError)
	var e env
	fig := fs.String("fig", "all", "figure to regenerate: "+strings.Join(figureNames(), "|"))
	fs.Int64Var(&e.seed, "seed", 1, "simulation seed")
	fs.IntVar(&e.days, "days", 7, "trace length in days (figs 5/6/corr)")
	fs.IntVar(&e.channels, "channels", 24, "deployed channels")
	fs.IntVar(&e.users, "users", 1200, "registered accounts")
	fs.Float64Var(&e.peak, "peak", 400, "session arrivals/hour at the diurnal peak")
	fs.StringVar(&e.viewers, "viewers", "50,200,800", "flash-crowd sizes (baseline)")
	fs.StringVar(&e.farms, "farms", "1,2,4,8", "farm sizes (farm scaling)")
	fs.StringVar(&e.mega, "mega", "50000,200000,1000000", "virtual-viewer sweep sizes (megascale)")
	fs.IntVar(&e.shards, "shards", 1, "worker lanes carrying the megascale virtual population (>= 1)")
	metrics := fs.String("metrics", "", "directory for CSV/JSONL metric exports (empty = no exports)")
	traceDir := fs.String("trace", "", "directory for causal-trace exports: <fig>_trace_events.json (Perfetto/chrome://tracing), _waterfall.txt, _critical_path.csv; arms week tracing (empty = no trace exports)")
	fs.IntVar(&e.traceEvery, "traceevery", 10, "head-sample 1 in N week sessions when -trace is set, N >= 1 (the scenario figures trace every viewer)")
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintln(w, "usage: drmsim [flags]\n\nfigures (-fig):")
		for _, f := range figures {
			fmt.Fprintf(w, "  %-10s %s\n", f.name, f.about)
		}
		fmt.Fprintf(w, "  %-10s everything above\n", "all")
		fmt.Fprintln(w, "\nThe week-long trace (figs 5/6/corr) simulates -days of diurnal traffic and\n"+
			"is scaled by -peak, -channels and -users. Absolute numbers differ from the\n"+
			"2008 production deployment; the shapes are the reproduction target.\n\nflags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if e.shards < 1 {
		return fmt.Errorf("bad -shards %d (want >= 1)", e.shards)
	}
	if e.traceEvery < 1 {
		return fmt.Errorf("bad -traceevery %d (want >= 1)", e.traceEvery)
	}
	var err error
	if e.out.metrics, err = newExporter(*metrics); err != nil {
		return err
	}
	if e.out.trace, err = newExporter(*traceDir); err != nil {
		return err
	}
	known := false
	for _, f := range figures {
		if *fig != f.name && *fig != "all" {
			continue
		}
		known = true
		fmt.Fprintf(os.Stderr, "running %s...\n", f.name)
		art, err := f.run(&e)
		if err != nil {
			return err
		}
		if err := e.out.exportArtifacts(f.name, art); err != nil {
			return err
		}
	}
	if !known {
		// An unknown value is an error, not a silent no-op run.
		return fmt.Errorf("unknown -fig %q (valid: %s)", *fig, strings.Join(figureNames(), ", "))
	}
	return nil
}

// week runs the measurement week once, however many figures read it,
// and exports it under its own prefix.
func (e *env) week() (*exp.WeekResult, error) {
	if e.weekRes != nil {
		return e.weekRes, nil
	}
	fmt.Fprintf(os.Stderr, "%d-day trace (seed=%d, peak=%.0f sessions/h)...\n", e.days, e.seed, e.peak)
	start := time.Now()
	cfg := exp.WeekConfig{
		Seed:                e.seed,
		Days:                e.days,
		Channels:            e.channels,
		Users:               e.users,
		PeakSessionsPerHour: e.peak,
	}
	if e.out.trace != nil {
		cfg.TraceEvery = e.traceEvery
	}
	week, err := exp.RunWeek(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "trace done in %v: %d sessions, %d feedback logs, peak %d concurrent\n",
		time.Since(start).Round(time.Second), week.Sessions, week.Corpus.Logs(), week.PeakConcurrent)
	if err := e.out.exportArtifacts("week", &week.Artifacts); err != nil {
		return nil, err
	}
	if week.Trace != nil {
		fmt.Println(exp.RenderJourneyBreakdown(week.Trace))
	}
	e.weekRes = week
	return week, nil
}

// weekFigure is a figure rendered from the shared week trace.
func weekFigure(render func(*exp.WeekResult) string) func(*env) (*exp.Artifacts, error) {
	return func(e *env) (*exp.Artifacts, error) {
		week, err := e.week()
		if err != nil {
			return nil, err
		}
		fmt.Println(render(week))
		return nil, nil
	}
}

func baseline(e *env) (*exp.Artifacts, error) {
	counts, err := parseInts(e.viewers)
	if err != nil {
		return nil, err
	}
	pts, err := exp.RunFlashSweep(exp.FlashConfig{Seed: e.seed, Spread: 5 * time.Second, Workers: 1, ServiceMS: 10}, counts)
	if err != nil {
		return nil, err
	}
	fmt.Println(exp.RenderFlashSweep(pts))
	for _, p := range pts {
		p := p
		if err := e.out.metrics.write(fmt.Sprintf("baseline_%d_trad_endpoints.csv", p.Viewers),
			func(w io.Writer) error { return exp.WriteEndpointsCSV(w, p.Trad.Endpoints) }); err != nil {
			return nil, err
		}
		if err := e.out.metrics.write(fmt.Sprintf("baseline_%d_drm_endpoints.csv", p.Viewers),
			func(w io.Writer) error { return exp.WriteEndpointsCSV(w, p.DRM.Endpoints) }); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func farm(e *env) (*exp.Artifacts, error) {
	sizes, err := parseInts(e.farms)
	if err != nil {
		return nil, err
	}
	pts, err := exp.RunFarmScaling(exp.FarmConfig{Seed: e.seed, FarmSizes: sizes})
	if err != nil {
		return nil, err
	}
	fmt.Println(exp.RenderFarm(pts))
	for _, p := range pts {
		p := p
		if err := e.out.metrics.write(fmt.Sprintf("farm_%d_endpoints.csv", p.Farm),
			func(w io.Writer) error { return exp.WriteEndpointsCSV(w, p.Endpoints) }); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func megascale(e *env) (*exp.Artifacts, error) {
	counts, err := parseInts(e.mega)
	if err != nil {
		return nil, err
	}
	pts := make([]*exp.MegaResult, 0, len(counts))
	for i, n := range counts {
		cfg := exp.MegaConfig{Seed: e.seed, Viewers: n, Shards: e.shards}
		var files []*os.File
		if i == len(counts)-1 {
			// Only the largest point streams: per-point files for
			// every sweep size would drown the export directory.
			csvF, err := e.out.metrics.create("megascale_series.csv")
			if err != nil {
				return nil, err
			}
			jslF, err := e.out.metrics.create("megascale_series.jsonl")
			if err != nil {
				return nil, err
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
			return nil, err
		}
		pts = append(pts, res)
	}
	fmt.Println(exp.RenderMega(pts))
	return nil, nil
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

// exportArtifacts writes one figure's bundle under the common naming
// scheme: <prefix>_{phases,endpoints,calls,series}.csv and
// <prefix>_trace.jsonl into the -metrics directory, the causal-trace
// artifacts into the -trace directory. A nil bundle, or a part the
// figure does not have, is skipped.
func (o outputs) exportArtifacts(prefix string, a *exp.Artifacts) error {
	if a == nil {
		return nil
	}
	parts := []struct {
		name string
		have bool
		fill func(io.Writer) error
	}{
		{"_phases.csv", a.Phases != nil, func(w io.Writer) error { return exp.WritePhasesCSV(w, a.Phases) }},
		{"_endpoints.csv", a.Endpoints != nil, func(w io.Writer) error { return exp.WriteEndpointsCSV(w, a.Endpoints) }},
		{"_calls.csv", a.Calls != nil, func(w io.Writer) error { return exp.WriteCallsCSV(w, a.Calls) }},
		{"_series.csv", a.Series != nil, a.Series.WriteCSV},
		{"_trace.jsonl", a.Trace != nil, a.Trace.WriteJSONL},
	}
	for _, p := range parts {
		if !p.have {
			continue
		}
		if err := o.metrics.write(prefix+p.name, p.fill); err != nil {
			return err
		}
	}
	return o.trace.exportTrace(prefix, a.Trace)
}

// exportTrace writes one figure's causal-trace artifacts: the Chrome
// trace_event JSON (load at ui.perfetto.dev), the rendered per-viewer
// waterfalls, and the flattened critical-path CSV.
func (e *exporter) exportTrace(prefix string, t *obs.Trace) error {
	if e == nil || t == nil {
		return nil
	}
	if err := e.write(prefix+"_trace_events.json", func(w io.Writer) error {
		return obs.WriteTraceEvents(w, t.Spans(), t.Total(), t.Dropped())
	}); err != nil {
		return err
	}
	if err := e.write(prefix+"_waterfall.txt", func(w io.Writer) error {
		obs.RenderWaterfalls(w, t.Spans(), t.Total(), t.Dropped())
		return nil
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
