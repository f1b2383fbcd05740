package exp

import (
	"bytes"
	"encoding/csv"
	"os"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"p2pdrm/internal/sim"
)

// The sharded engine's promise: for ANY shard count the run is
// byte-identical — fingerprints AND the streamed metric rows (the
// population owns per-viewer SplitMix64 streams, so lane placement is
// invisible). Shards 0 is in every list to pin "unset means one lane".

var goldenMegaCfg = MegaConfig{
	Seed:        42,
	Viewers:     20000,
	RealViewers: 12,
	Duration:    10 * time.Minute,
	RenewEvery:  2 * time.Minute,
	SampleEvery: time.Minute,
}

const goldenMegaSharded = "viewers=20000 real=12 renewals=100582 churned=1996 evictions=1062 keymsgs=230 frames=3785 rows=10 peak=39587"

// TestMegaScaleShardDeterminismGolden runs the mega scenario at shards ∈
// {0, 1, 2, 8} and requires the fingerprint to match the pinned golden
// and the streamed CSV to be byte-identical across all shard counts.
func TestMegaScaleShardDeterminismGolden(t *testing.T) {
	var baseCSV []byte
	for _, shards := range []int{0, 1, 2, 8} {
		cfg := goldenMegaCfg
		cfg.Shards = shards
		var csv bytes.Buffer
		cfg.MetricsCSV = &csv
		res, err := RunMegaScale(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := res.Fingerprint()
		if os.Getenv("GOLDEN_PRINT") != "" {
			t.Logf("mega sharded golden (shards=%d):\n%s", shards, got)
		} else if got != goldenMegaSharded {
			t.Errorf("shards=%d: sharded megascale moved\n got: %s\nwant: %s", shards, got, goldenMegaSharded)
		}
		if baseCSV == nil {
			baseCSV = csv.Bytes()
			if len(baseCSV) == 0 {
				t.Fatal("no CSV rows streamed")
			}
		} else if !bytes.Equal(baseCSV, csv.Bytes()) {
			t.Errorf("shards=%d: streamed CSV differs from shards=0", shards)
		}
	}
}

// TestMegaShardedStreamsMatchRetained requires that streaming the
// metrics (sinks draining rows as they are sampled) reproduces the same
// fingerprint as retaining them: exports observe, never perturb.
func TestMegaShardedStreamsMatchRetained(t *testing.T) {
	cfg := goldenMegaCfg
	cfg.Shards = 2
	plain, err := RunMegaScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var csv, jsonl bytes.Buffer
	cfg.MetricsCSV = &csv
	cfg.MetricsJSONL = &jsonl
	streamed, err := RunMegaScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Fingerprint() != streamed.Fingerprint() {
		t.Errorf("streamed sharded run diverges\n retained: %s\n streamed: %s",
			plain.Fingerprint(), streamed.Fingerprint())
	}
	if csv.Len() == 0 || jsonl.Len() == 0 {
		t.Fatal("sinks received nothing")
	}
}

// TestShardPopRenewAllocatesNoClosure pins the once-bound method values:
// in steady state a renewal recycles pooled events and allocates
// nothing, whereas writing p.renew / p.evicted at the AfterArg call
// sites costs one method-value closure per timer (≥ 2 per renewal).
func TestShardPopRenewAllocatesNoClosure(t *testing.T) {
	start := time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)
	eng := sim.NewSharded(start, 1, 1, megaLookahead)
	pops := newShardPops(eng, 512, 1, time.Minute)
	now := start.Add(10 * time.Minute) // warm the event freelist
	eng.Run(now)
	before, _, _ := popTotals(pops)
	allocs := testing.AllocsPerRun(5, func() {
		now = now.Add(time.Minute)
		eng.Run(now)
	})
	after, _, _ := popTotals(pops)
	perRenewal := allocs * 6 / float64(after-before) // AllocsPerRun makes one warm-up call
	if perRenewal >= 0.5 {
		t.Errorf("%.2f allocations per renewal, want ~0 (a closure per timer would be ≥ 2)", perRenewal)
	}
}

// memProbe is the metrics writer TestMegaPopAllocBudget streams into.
// The sampler flushes one CSV row per simulated minute from the control
// phase, while the lanes wait between epochs, so each Write sees the
// population at rest. It records the heap still live after a full GC,
// less the live heap before the run, and the process's running
// allocation count, and keeps the rows.
type memProbe struct {
	csv           bytes.Buffer
	base          uint64
	heap, mallocs []uint64
}

func newMemProbe() *memProbe {
	m := &memProbe{heap: make([]uint64, 0, 32), mallocs: make([]uint64, 0, 32)}
	m.csv.Grow(1 << 16)
	m.base, _ = liveHeap()
	return m
}

// liveHeap collects garbage and reports the heap still in use and the
// process's running allocation count.
func liveHeap() (heap, mallocs uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.Mallocs
}

func (m *memProbe) Write(p []byte) (int, error) {
	heap, mallocs := liveHeap()
	m.heap = append(m.heap, heap-m.base)
	m.mallocs = append(m.mallocs, mallocs)
	return m.csv.Write(p)
}

// renewals returns the mega.renewals column, one value per Write.
func (m *memProbe) renewals(t *testing.T) []float64 {
	recs, err := csv.NewReader(&m.csv).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := slices.Index(recs[0], "mega.renewals")
	if col < 0 || len(recs)-1 != len(m.mallocs) {
		t.Fatalf("streamed %d rows in %d writes, renewals column %d", len(recs)-1, len(m.mallocs), col)
	}
	out := make([]float64, len(recs)-1)
	for i, rec := range recs[1:] {
		if out[i], err = strconv.ParseFloat(rec[col], 64); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestMegaPopAllocBudget pins what a virtual viewer costs once the
// population is in steady state: at most 0.02 allocations per renewal and
// 192 B of retained heap per viewer, of which the viewer's 32-byte record
// and its two pending 64-byte events are 160. The quick mega_timers scenario
// (8 real viewers) runs at 20 000 and at 10 000 viewers, and the two are
// subtracted row by row: the real overlay cancels, leaving the extra
// 10 000 viewers. It runs on one lane, which the engine runs in place:
// with two, every epoch starts two goroutines, and the sparser population
// runs a few fewer epochs. The first 6 rows are warm-up, since the
// population grows to two timers per viewer over its first 5-minute
// renewal period.
func TestMegaPopAllocBudget(t *testing.T) {
	run := func(viewers int) (*memProbe, []float64) {
		probe := newMemProbe()
		_, err := RunMegaScale(MegaConfig{Seed: 1, Viewers: viewers, RealViewers: 8,
			Duration: 12 * time.Minute, MetricsCSV: probe})
		if err != nil {
			t.Fatal(err)
		}
		return probe, probe.renewals(t)
	}
	const big, small, warm = 20000, 10000, 6
	bp, br := run(big)
	sp, sr := run(small)
	if len(bp.mallocs) != len(sp.mallocs) || len(bp.mallocs) <= warm+1 {
		t.Fatalf("%d and %d rows; want the same number, more than %d", len(bp.mallocs), len(sp.mallocs), warm+1)
	}
	last := len(bp.mallocs) - 1
	allocs := float64(bp.mallocs[last]-bp.mallocs[warm]) - float64(sp.mallocs[last]-sp.mallocs[warm])
	renewals := (br[last] - br[warm]) - (sr[last] - sr[warm])
	retained := 0.0
	for i := warm; i <= last; i++ {
		retained = max(retained, (float64(bp.heap[i])-float64(sp.heap[i]))/(big-small))
	}
	t.Logf("%.0f allocations over %.0f renewals (%.4f each); %.0f B retained per viewer",
		allocs, renewals, allocs/renewals, retained)
	if renewals < 5000 {
		t.Fatalf("only %.0f renewals in the measured window", renewals)
	}
	if per := allocs / renewals; per > 0.02 {
		t.Errorf("%.3f allocations per renewal after warm-up, want <= 0.02", per)
	}
	if retained > 192 {
		t.Errorf("%.0f B of heap retained per virtual viewer, want <= 192", retained)
	}
}

// TestPopViewerLayout pins a virtual viewer at one 32-byte record, half
// a cache line: a field added later must be a deliberate decision.
func TestPopViewerLayout(t *testing.T) {
	if got := unsafe.Sizeof(popViewer{}); got != 32 {
		t.Errorf("popViewer is %d bytes, want 32", got)
	}
}
