package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"p2pdrm/internal/feedback"
	"p2pdrm/internal/obs"
)

// The old engine's per-seed determinism was accidental and, in fact,
// broken: a goroutine waking another left both runnable, racing on the
// shared seeded RNG, maps fed fan-out ordering, and the stdlib's ecdh
// keygen consumed a runtime-randomized number of bytes from the shared
// stream (randutil.MaybeReadByte). The reworked engine serializes
// execution under a run token, fans out in sorted order, and draws
// exactly 32 bytes per X25519 key, making determinism a hard guarantee.
// These fingerprints pin it: every run — sequential or parallel, any
// GOMAXPROCS — must reproduce them byte for byte.

func farmFingerprint(pts []FarmPoint) string {
	var b strings.Builder
	for _, p := range pts {
		fmt.Fprintf(&b, "farm=%d login=%d/%d switch=%d/%d join=%d fail=%d maxq=%d\n",
			p.Farm, p.LoginMedian.Nanoseconds(), p.LoginP95.Nanoseconds(),
			p.SwitchMedian.Nanoseconds(), p.SwitchP95.Nanoseconds(),
			p.JoinMedian.Nanoseconds(), p.Failures, p.MaxQueue)
	}
	return b.String()
}

func weekFingerprint(r *WeekResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sessions=%d peak=%d loginfail=%d\n",
		r.Sessions, r.PeakConcurrent, r.LoginFailures)
	counts := map[feedback.Round]int{}
	sums := map[feedback.Round]int64{}
	var atXor int64
	for _, smp := range r.Corpus.Samples() {
		counts[smp.Round]++
		sums[smp.Round] += smp.Latency.Nanoseconds()
		atXor ^= smp.At.UnixNano()
	}
	for _, rd := range feedback.Rounds {
		fmt.Fprintf(&b, "%s n=%d sum=%d\n", rd, counts[rd], sums[rd])
	}
	fmt.Fprintf(&b, "atxor=%d\n", atXor)
	return b.String()
}

var goldenFarmCfg = FarmConfig{
	Seed:      42,
	Viewers:   60,
	Spread:    5 * time.Second,
	FarmSizes: []int{1, 2},
}

var goldenWeekCfg = WeekConfig{
	Seed:                42,
	Days:                1,
	Channels:            3,
	Users:               30,
	PeakSessionsPerHour: 20,
	MeanSession:         15 * time.Minute,
}

// Recorded on the serialized engine with the configs above. Regenerate
// by running with GOLDEN_PRINT=1 — but a change here means the
// simulation's observable behaviour moved, which any perf-only PR must
// not do.
const goldenFarm = "farm=1 login=146025942/162629648 switch=153277584/181281683 join=54128910 fail=0 maxq=5\n" +
	"farm=2 login=145934797/163313966 switch=150367423/166851458 join=53819834 fail=0 maxq=2\n"

const goldenWeek = "sessions=203 peak=11 loginfail=0\n" +
	"LOGIN1 n=404 sum=57954145289\n" +
	"LOGIN2 n=404 sum=57791715422\n" +
	"SWITCH1 n=844 sum=119536309872\n" +
	"SWITCH2 n=841 sum=119511380530\n" +
	"JOIN n=958 sum=44916520674\n" +
	"atxor=1214150691858750957\n"

// TestFarmDeterminismGolden pins the farm sweep's bytes and the parallel
// runner itself: runPoints over the host's CPUs and a plain sequential
// loop over the same point function must both reproduce the golden.
func TestFarmDeterminismGolden(t *testing.T) {
	cfg := goldenFarmCfg
	cfg.fill()
	par, err := RunFarmScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := make([]FarmPoint, len(cfg.FarmSizes))
	for i, farm := range cfg.FarmSizes {
		if seq[i], err = runFarmPoint(cfg, farm); err != nil {
			t.Fatal(err)
		}
	}
	for name, pts := range map[string][]FarmPoint{"runPoints": par, "sequential": seq} {
		got := farmFingerprint(pts)
		if os.Getenv("GOLDEN_PRINT") != "" {
			t.Logf("farm golden (%s):\n%s", name, got)
			continue
		}
		if got != goldenFarm {
			t.Errorf("%s: farm results moved\n got:\n%s\nwant:\n%s", name, got, goldenFarm)
		}
	}
}

func TestWeekDeterminismGolden(t *testing.T) {
	res, err := RunWeek(goldenWeekCfg)
	if err != nil {
		t.Fatal(err)
	}
	got := weekFingerprint(res)
	if os.Getenv("GOLDEN_PRINT") != "" {
		t.Logf("week golden:\n%s", got)
		return
	}
	if got != goldenWeek {
		t.Errorf("week results moved\n got:\n%s\nwant:\n%s", got, goldenWeek)
	}
}

// goldenWeekExports pins the SHA-256 of every file the week exports
// beyond its corpus: the golden week's sampled series, and the trace
// artifacts of the same week with every second session traced.
var goldenWeekExports = map[string]string{
	"series.csv":        "f6e15eb82e306992ea44bcfeff6c45192098e0e76a4ae0d5fee6d32c0e57bf9f",
	"trace_events.json": "38807adf313c80baf3439ea771687eda93ee5a8ca35c03996c6680fe23c32e71",
	"waterfall.txt":     "3ee2a361f35c766dd71d6c9425e949c6897faa317f58e0575182c6c30e3a644b",
	"critical_path.csv": "fd140a362517d024da06f3cbd7739999cdc29cdda820c3a7847d84c4437e18b7",
}

// TestWeekExportsDeterminismGolden pins the week's exported bytes, so a
// change to how the week is assembled — engine, sampler, span ring —
// cannot move a series row or a span while the corpus golden holds.
func TestWeekExportsDeterminismGolden(t *testing.T) {
	digest := func(fill func(io.Writer) error) string {
		h := sha256.New()
		if err := fill(h); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	plain, err := RunWeek(goldenWeekCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenWeekCfg
	cfg.TraceEvery = 2
	traced, err := RunWeek(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := traced.Trace
	got := map[string]string{
		"series.csv": digest(plain.Series.WriteCSV),
		"trace_events.json": digest(func(w io.Writer) error {
			return obs.WriteTraceEvents(w, tr.Spans(), tr.Total(), tr.Dropped())
		}),
		"waterfall.txt": digest(func(w io.Writer) error {
			obs.RenderWaterfalls(w, tr.Spans(), tr.Total(), tr.Dropped())
			return nil
		}),
		"critical_path.csv": digest(func(w io.Writer) error { return WriteCriticalPathCSV(w, tr) }),
	}
	for name, want := range goldenWeekExports {
		if os.Getenv("GOLDEN_PRINT") != "" {
			t.Logf("%q: %q,", name, got[name])
		} else if got[name] != want {
			t.Errorf("week %s moved: sha256 %s, want %s", name, got[name], want)
		}
	}
}
