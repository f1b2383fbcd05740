package main

// The benchmark's vocabulary: which workloads exist, which metrics they
// report, what each metric's unit, direction and regression bound are,
// and — for per-layer metrics — which layer owns it, where the number
// comes from, and which end-to-end metric it is predicted to move.
// BENCHMARK.json at the repo root is the driver-facing projection of
// these tables; schema_test.go keeps the two in step.

// Sources of a per-layer metric.
const (
	srcStack   = "S" // CPU-profile cost stack (parts sum to the profile total)
	srcCounter = "C" // counter read from the program's public results
	srcProbe   = "P" // benchmark-owned span around direct calls into the layer
)

// metric describes one reported number.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// get worse before it counts as a regression (end-to-end only; 0 means
	// any rise regresses, used for the deterministic failure fraction).
	// There is one bound per metric: BENCHMARK.json declares it and
	// `compare` applies it.
	Bound float64
	// Simulated metrics are deterministic for a seed: they repeat
	// exactly, so any drift is a behaviour change, not noise.
	Simulated bool
	// Layer, Source and Moves describe a per-layer metric: the
	// internal/<module> that owns it, S/C/P, and "<end-to-end metric> on
	// <workload>" it is predicted to move.
	Layer  string
	Source string
	Moves  string
}

// workloadSpec names one workload and why it exists. The names are
// final; later issues refer to them.
type workloadSpec struct {
	Name string
	Loop string // open/closed-loop statement
	Why  string
}

var workloads = []workloadSpec{
	{"week_diurnal", "open loop: diurnal Poisson session arrivals, Zipf zapping, ticket renewals; content off",
		"paper Fig 5/6 week: steady control plane with warm caches, ~3/4 of CPU in cryptoutil; engine work must not show here"},
	{"flash_faults", "open-loop arrival burst with closed-loop retries under loss, manager outages and a partition",
		"correlated arrivals with cold caches, queues, retries and drops; shows cold-start and per-client memory cost"},
	{"content_stream", "open loop: packets every 100 ms and re-keys every minute through a depth-4+ tree of 256 viewers",
		"data plane: per-packet AES-GCM, per-edge relay, content codec and simnet.Send; logins and joins are set-up"},
	{"mega_timers", "open loop: 1 M phase-jittered renewal timers plus eviction sentinels on 2 lanes, 64 real viewers",
		"engine capacity: timer wheel, lane barrier, allocation and GC; a crypto optimisation must not move it"},
}

// Host-side end-to-end metrics: reported by every workload, median of
// fresh-process repetitions. These six are BENCHMARK.json's end_to_end.
// The driver holds a bound against runs that each use a different seed on
// a shared host, and wants it at three times the inter-quartile spread of
// ten such runs, so the bounds cover seed-to-seed variation (a different
// Poisson draw is a few per cent more or fewer sessions) and neighbour
// noise as well as run-to-run jitter; README "Bounds" has the measured
// spreads behind each.
var hostMetrics = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "allocs_k", Unit: "1e3", Better: "lower", Bound: 0.20},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// Simulated-side end-to-end metrics (simulated milliseconds and the
// failure fraction). A workload omits one it cannot observe. The driver
// takes every end_to_end metric from every workload, never 0, so
// BENCHMARK.json cannot list these as end_to_end (README "BENCHMARK.json"
// quotes the rules): it lists them under per_layer, which carries no
// bound, and `compare` is what holds them to the bounds here.
var simMetrics = []metric{
	{Name: "login_p50_ms", Unit: "ms", Better: "lower", Bound: 0.01, Simulated: true},
	{Name: "login_p95_ms", Unit: "ms", Better: "lower", Bound: 0.01, Simulated: true},
	{Name: "switch_p95_ms", Unit: "ms", Better: "lower", Bound: 0.01, Simulated: true},
	{Name: "join_p95_ms", Unit: "ms", Better: "lower", Bound: 0.01, Simulated: true},
	{Name: "time_to_play_p95_ms", Unit: "ms", Better: "lower", Bound: 0.01, Simulated: true},
	{Name: "failed_ops_frac", Unit: "frac", Better: "lower", Bound: 0, Simulated: true},
}

// endToEnd is the full end-to-end set `run` prints and `compare` bounds.
func endToEnd() []metric { return append(append([]metric(nil), hostMetrics...), simMetrics...) }

// driverPerLayer is BENCHMARK.json's per_layer list: the per-layer
// metrics plus the simulated end-to-end ones (see simMetrics).
func driverPerLayer() []metric { return append(append([]metric(nil), perLayer...), simMetrics...) }

func stack(layer, moves string) metric {
	return metric{Name: layer + ".cpu_s", Unit: "s", Better: "lower", Layer: layer, Source: srcStack, Moves: moves}
}

func counter(layer, name, unit, better, moves string) metric {
	return metric{Name: layer + "." + name, Unit: unit, Better: better, Layer: layer, Source: srcCounter, Moves: moves}
}

func probe(layer, name, unit, moves string) metric {
	return metric{Name: layer + "." + name, Unit: unit, Better: "lower", Layer: layer, Source: srcProbe, Moves: moves}
}

// perLayer is the per-layer metric set, layer = internal/<module> name
// (ticket includes lru; policy includes attr and epg; other is every
// remaining internal package).
var perLayer = []metric{
	stack("cryptoutil", "cpu_s on week_diurnal"),
	probe("cryptoutil", "sign_ns", "ns", "cpu_s on week_diurnal"),
	probe("cryptoutil", "verify_ns", "ns", "cpu_s on week_diurnal"),
	probe("cryptoutil", "ecies_ns", "ns", "cpu_s on flash_faults"),
	probe("cryptoutil", "sym_ns", "ns", "wall_s on content_stream"),

	stack("ticket", "cpu_s on week_diurnal"),
	probe("ticket", "verify_cold_ns", "ns", "cpu_s on flash_faults"),
	probe("ticket", "verify_warm_ns", "ns", "cpu_s on week_diurnal"),

	stack("keys", "wall_s on content_stream"),
	probe("keys", "seal_packet_ns", "ns", "wall_s on content_stream"),
	probe("keys", "open_packet_ns", "ns", "wall_s on content_stream"),

	stack("stoken", "cpu_s on week_diurnal"),
	probe("stoken", "seal_open_ns", "ns", "cpu_s on flash_faults"),

	stack("policy", "cpu_s on week_diurnal"),
	probe("policy", "evaluate_ns", "ns", "cpu_s on week_diurnal"),

	stack("wire", "wall_s on content_stream"),
	probe("wire", "login_codec_ns", "ns", "cpu_s on flash_faults"),
	probe("wire", "content_codec_ns", "ns", "allocs_k on content_stream"),

	stack("sim", "wall_s on mega_timers"),
	counter("sim", "peak_pending", "count", "lower", "peak_rss_mb on mega_timers"),
	counter("sim", "virtual_events", "count", "higher", "wall_s on mega_timers"),
	probe("sim", "event_ns", "ns", "wall_s on mega_timers"),
	probe("sim", "sleep_ns", "ns", "wall_s on content_stream"),
	probe("sim", "timer_stop_ns", "ns", "wall_s on mega_timers"),
	probe("sim", "deep_fanout_ns", "ns", "wall_s on mega_timers"),

	stack("simnet", "wall_s on content_stream"),
	counter("simnet", "msgs_sent", "count", "lower", "wall_s on content_stream"),
	counter("simnet", "msgs_dropped", "count", "lower", "time_to_play_p95_ms on flash_faults"),
	probe("simnet", "rpc_ns", "ns", "wall_s on content_stream"),
	probe("simnet", "rpc_allocs", "count", "allocs_k on content_stream"),

	stack("svc", "cpu_s on flash_faults"),
	counter("svc", "requests", "count", "lower", "cpu_s on week_diurnal"),
	counter("svc", "errors", "count", "lower", "failed_ops_frac on flash_faults"),
	counter("svc", "shed", "count", "lower", "failed_ops_frac on flash_faults"),
	counter("svc", "client_calls", "count", "lower", "cpu_s on week_diurnal"),
	counter("svc", "client_retries", "count", "lower", "time_to_play_p95_ms on flash_faults"),
	counter("svc", "client_failures", "count", "lower", "failed_ops_frac on flash_faults"),
	counter("svc", "breaker_rejects", "count", "lower", "failed_ops_frac on flash_faults"),
	counter("svc", "attempts_per_call", "ratio", "lower", "time_to_play_p95_ms on flash_faults"),
	probe("svc", "invoke_ns", "ns", "cpu_s on flash_faults"),

	stack("usermgr", "cpu_s on flash_faults"),
	counter("usermgr", "requests", "count", "lower", "login_p95_ms on week_diurnal"),
	counter("usermgr", "server_p95_ms", "ms", "lower", "login_p95_ms on flash_faults"),

	stack("channelmgr", "wall_s on flash_faults"),
	counter("channelmgr", "requests", "count", "lower", "switch_p95_ms on week_diurnal"),
	counter("channelmgr", "server_p95_ms", "ms", "lower", "switch_p95_ms on flash_faults"),

	stack("p2p", "wall_s on content_stream"),
	counter("p2p", "joins_accepted", "count", "higher", "join_p95_ms on content_stream"),
	counter("p2p", "joins_rejected", "count", "lower", "join_p95_ms on content_stream"),
	counter("p2p", "keys_forwarded", "count", "lower", "wall_s on content_stream"),
	counter("p2p", "packets_forwarded", "count", "lower", "wall_s on content_stream"),
	counter("p2p", "packets_duplicate", "count", "lower", "wall_s on content_stream"),
	counter("p2p", "dup_frac", "frac", "lower", "wall_s on content_stream"),
	counter("p2p", "packets_undecrypt", "count", "lower", "failed_ops_frac on content_stream"),
	probe("p2p", "content_edge_ns", "ns", "wall_s on content_stream"),
	probe("p2p", "key_edge_ns", "ns", "wall_s on content_stream"),

	stack("chserver", "wall_s on content_stream"),

	stack("client", "cpu_s on flash_faults"),
	counter("client", "logins", "count", "lower", "cpu_s on week_diurnal"),
	counter("client", "switches", "count", "lower", "cpu_s on week_diurnal"),
	counter("client", "renewals", "count", "lower", "cpu_s on content_stream"),
	counter("client", "rejoins", "count", "lower", "join_p95_ms on content_stream"),
	counter("client", "restarts", "count", "lower", "time_to_play_p95_ms on flash_faults"),
	counter("client", "stalls", "count", "lower", "failed_ops_frac on content_stream"),
	probe("client", "login_host_us", "us", "cpu_s on flash_faults"),
	probe("client", "login_allocs", "count", "allocs_k on flash_faults"),
	probe("client", "login_kb", "kB", "alloc_mb on flash_faults"),
	probe("client", "watch_host_us", "us", "cpu_s on week_diurnal"),
	probe("client", "watch_allocs", "count", "allocs_k on week_diurnal"),
	probe("client", "watch_kb", "kB", "alloc_mb on week_diurnal"),

	stack("core", "setup_s on content_stream"),
	probe("core", "deploy_ms", "ms", "setup_s on content_stream"),
	probe("core", "register_user_us", "us", "wall_s on flash_faults"),
	probe("core", "new_client_us", "us", "wall_s on flash_faults"),
	probe("core", "new_client_kb", "kB", "peak_rss_mb on flash_faults"),

	stack("obs", "alloc_mb on flash_faults"),
	counter("obs", "trace_spans", "count", "lower", "alloc_mb on flash_faults"),
	counter("obs", "trace_dropped", "count", "lower", "alloc_mb on flash_faults"),
	probe("obs", "hist_observe_ns", "ns", "cpu_s on flash_faults"),
	probe("obs", "sample_ns", "ns", "wall_s on mega_timers"),
	{Name: "obs.trace_overhead", Unit: "ratio", Better: "lower", Layer: "obs", Source: srcProbe, Moves: "wall_s on week_diurnal"},

	stack("exp", "wall_s on mega_timers"),
	stack("other", "cpu_s on week_diurnal"),

	{Name: "go_runtime.gc_cpu_s", Unit: "s", Better: "lower", Layer: "go_runtime", Source: srcStack, Moves: "cpu_s on mega_timers"},
	{Name: "go_runtime.other_cpu_s", Unit: "s", Better: "lower", Layer: "go_runtime", Source: srcStack, Moves: "cpu_s on mega_timers"},
	counter("go_runtime", "gc_cycles", "count", "lower", "alloc_mb on mega_timers"),

	stack("harness", "setup_s on content_stream"),
	{Name: "harness.profile_overhead", Unit: "ratio", Better: "lower", Layer: "harness", Source: srcProbe, Moves: "wall_s on week_diurnal"},
	{Name: "harness.unattributed_frac", Unit: "frac", Better: "lower", Layer: "harness", Source: srcStack, Moves: "cpu_s on week_diurnal"},
}

// layerOf maps an internal package name to the layer its CPU samples are
// charged to. Packages not listed are charged to "other".
var layerOf = map[string]string{
	"cryptoutil": "cryptoutil",
	"ticket":     "ticket", "lru": "ticket",
	"keys":   "keys",
	"stoken": "stoken",
	"policy": "policy", "attr": "policy", "epg": "policy",
	"wire":       "wire",
	"sim":        "sim",
	"simnet":     "simnet",
	"svc":        "svc",
	"usermgr":    "usermgr",
	"channelmgr": "channelmgr",
	"p2p":        "p2p",
	"chserver":   "chserver",
	"client":     "client",
	"core":       "core",
	"obs":        "obs",
	"exp":        "exp",
}

func findMetric(list []metric, name string) (metric, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// runSeconds is how long the driver asks one run to measure. 20 s fits
// one week_diurnal repetition and three or more of every other workload,
// and keeps the driver's 92 runs near half its time limit.
const runSeconds = 20

// manifest is BENCHMARK.json: the driver-facing projection of the tables
// above. `benchmark manifest` prints it and schema_test.go requires the
// committed file to match, so the two cannot drift.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWhy    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end_to_end only
}

func buildManifest() manifest {
	m := manifest{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWhy{w.Name, w.Why})
	}
	for _, e := range hostMetrics {
		bound := e.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{e.Name, e.Unit, e.Better, &bound})
	}
	for _, l := range driverPerLayer() {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: l.Name, Unit: l.Unit, Better: l.Better})
	}
	return m
}
