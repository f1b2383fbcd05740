package svc

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"p2pdrm/internal/obs"
	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

// bytesPerCall is the heap f allocates per call: the least of five
// passes of runs calls each, so an allocation elsewhere in the process
// during one pass does not count against f.
func bytesPerCall(runs int, f func()) float64 {
	best := -1.0
	for pass := 0; pass < 5; pass++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&m1)
		if b := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs); best < 0 || b < best {
			best = b
		}
	}
	return best
}

// statsServices are the six services a viewer's policy calls.
var statsServices = []string{wire.SvcLogin1, wire.SvcLogin2, wire.SvcSwitch1, wire.SvcSwitch2, wire.SvcChanList, wire.SvcRedirect}

// callLatencies drives one call per latency through p for service, each
// attempt taking that long on the simulation clock.
func callLatencies(s *sim.Scheduler, p *Policy, service string, ds ...time.Duration) {
	for _, d := range ds {
		s.Go(func() {
			_, _ = p.do("vip", service, nil, func(simnet.Addr, string, []byte, time.Duration) ([]byte, error) {
				s.Sleep(d)
				return []byte("ok"), nil
			})
		})
		s.Run()
	}
}

// TestPolicyStatsAllocBudget: reading a holder costs the octaves it
// touched. Stats of a policy whose six services each saw round trips in
// one or two octaves allocates ≤ 1 KiB per service (a dense snapshot
// alone is 6 168 B), and Snapshot of a runtime whose endpoints count only
// in the underflow bucket (a peer's, whose handlers take no simulated
// time) allocates no octave block.
func TestPolicyStatsAllocBudget(t *testing.T) {
	s := sim.New(t0, 1)
	p := NewPolicy(s, PolicyConfig{})
	for i, service := range statsServices {
		if i%2 == 0 {
			callLatencies(s, p, service, 80*time.Millisecond, 100*time.Millisecond) // one octave
		} else {
			callLatencies(s, p, service, 90*time.Millisecond, 180*time.Millisecond) // two
		}
	}
	if st := p.Stats(); len(st) != len(statsServices) || st[wire.SvcLogin2].Hist.Count() != 2 {
		t.Fatalf("stats = %v, want %d services with 2 calls each", st, len(statsServices))
	}
	if per := bytesPerCall(200, func() { p.Stats() }) / float64(len(statsServices)); per > 1024 {
		t.Errorf("Stats allocates %.0f B per service, want ≤ 1024", per)
	}

	_, net := newNet()
	rt := NewRuntime(net.NewNode("peer"))
	names := []string{wire.SvcJoin, wire.SvcSeek, wire.SvcKeyPush, wire.SvcContent, wire.SvcRenewal, wire.SvcLeave, wire.SvcPeerExpire}
	for _, name := range names {
		RegisterRaw(rt, name, func(_ simnet.Addr, b []byte) ([]byte, error) { return b, nil })
		rt.endpoints[name].observe(t0, t0, nil)
	}
	if m := rt.Snapshot()[wire.SvcJoin]; m.Hist.Count() != 1 || m.Hist.Quantile(1) >= 10*time.Microsecond {
		t.Fatalf("join endpoint = %+v, want one underflow observation", m)
	}
	if per := bytesPerCall(200, func() { rt.Snapshot() }) / float64(len(names)); per > 1024 {
		t.Errorf("Snapshot allocates %.0f B per endpoint, want ≤ 1024", per)
	}
	// The same map holding empty snapshots: any further object is a block.
	empty := func() {
		out := make(map[string]Metrics)
		for _, name := range names {
			out[name] = Metrics{Hist: &obs.HistSnapshot{}}
		}
	}
	if got, want := testing.AllocsPerRun(50, func() { rt.Snapshot() }), testing.AllocsPerRun(50, empty); got != want {
		t.Errorf("Snapshot allocates %v objects, %v with no octave block", got, want)
	}
}

// TestSnapshotsOwnTheirBlocks: writing into a Stats result, a Merge
// target or a Metrics.Sub delta (Add into itself doubles every bucket in
// place) moves no live counter and no other snapshot.
func TestSnapshotsOwnTheirBlocks(t *testing.T) {
	s := sim.New(t0, 1)
	p := NewPolicy(s, PolicyConfig{})
	callLatencies(s, p, wire.SvcLogin1, 80*time.Millisecond, 180*time.Millisecond)
	want := p.Stats()[wire.SvcLogin1].Hist

	got := p.Stats()[wire.SvcLogin1]
	got.Hist.Add(got.Hist)
	var merged CallStats
	merged.Merge(p.Stats()[wire.SvcLogin1])
	merged.Hist.Add(merged.Hist)
	if h := p.Stats()[wire.SvcLogin1].Hist; !reflect.DeepEqual(h, want) {
		t.Fatal("writing into a Stats result or a Merge target moved the live histogram")
	}
	src := p.Stats()[wire.SvcLogin1]
	merged = CallStats{}
	merged.Merge(src)
	merged.Hist.Add(merged.Hist)
	if !reflect.DeepEqual(src.Hist, want) {
		t.Fatal("writing into a Merge target moved its source")
	}

	prev, prevWant := Metrics{Hist: p.Stats()[wire.SvcLogin1].Hist}, p.Stats()[wire.SvcLogin1].Hist
	callLatencies(s, p, wire.SvcLogin1, 300*time.Millisecond)
	cur, curWant := Metrics{Hist: p.Stats()[wire.SvcLogin1].Hist}, p.Stats()[wire.SvcLogin1].Hist
	d := cur.Sub(prev)
	d.Hist.Add(d.Hist)
	if !reflect.DeepEqual(cur.Hist, curWant) || !reflect.DeepEqual(prev.Hist, prevWant) {
		t.Fatal("writing into a Sub delta moved an operand")
	}
}
