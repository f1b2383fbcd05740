package main

import (
	"math"
	"testing"
)

func TestStackOwnerChargesDeepestRepoFrame(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"stdlib under cryptoutil", []string{
			"crypto/internal/edwards25519.(*Point).VarTimeDoubleScalarBaseMult", "crypto/ed25519.verify",
			"p2pdrm/internal/cryptoutil.PublicKey.VerifySig", "p2pdrm/internal/ticket.VerifyChannel",
			"p2pdrm/internal/channelmgr.(*Manager).handleSwitch2", "p2pdrm/internal/sim.(*Scheduler).Go.func1",
		}, "cryptoutil.cpu_s"},
		{"allocator under wire", []string{"runtime.mallocgc", "runtime.growslice", "p2pdrm/internal/wire.(*Enc).Blob",
			"p2pdrm/internal/client.(*Client).loginOnce"}, "wire.cpu_s"},
		{"lru belongs to ticket", []string{"p2pdrm/internal/lru.(*Cache[...]).Get", "p2pdrm/internal/ticket.(*Verifier).VerifyChannel"}, "ticket.cpu_s"},
		{"attr belongs to policy", []string{"p2pdrm/internal/attr.List.Get", "p2pdrm/internal/usermgr.(*Manager).login2"}, "policy.cpu_s"},
		{"generic receiver", []string{"p2pdrm/internal/svc.(*ShardedFarm[go.shape.*uint8]).Route"}, "svc.cpu_s"},
		{"unlisted package", []string{"strings.Builder.WriteString", "p2pdrm/internal/geo.Addr", "p2pdrm/internal/exp.RunWeek"}, "other.cpu_s"},
		{"harness frame", []string{"runtime.memmove", "main.contentStream.func1"}, "harness.cpu_s"},
		{"background GC", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "go_runtime.gc_cpu_s"},
		{"scheduler idle", []string{"runtime.futex", "runtime.notesleep", "runtime.mcall"}, "go_runtime.other_cpu_s"},
		{"GC assist charged to the allocating layer", []string{"runtime.gcAssistAlloc", "runtime.mallocgc", "p2pdrm/internal/p2p.(*Peer).relay"}, "p2p.cpu_s"},
	}
	for _, tc := range cases {
		if got := stackOwner(tc.stack); got != tc.want {
			t.Errorf("%s: charged to %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCostStackSumsToProfileTotal(t *testing.T) {
	samples := []cpuSample{
		{Stack: []string{"crypto/ed25519.verify", "p2pdrm/internal/cryptoutil.PublicKey.VerifySig"}, Nanos: 70e6},
		{Stack: []string{"runtime.mallocgc", "p2pdrm/internal/wire.(*Enc).Blob"}, Nanos: 20e6},
		{Stack: []string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, Nanos: 30e6},
		{Stack: []string{"runtime.futex"}, Nanos: 10e6},
		{Stack: []string{"p2pdrm/internal/sim.(*Scheduler).RunUntil", "main.main"}, Nanos: 40e6},
	}
	got := costStack(samples)
	var total, parts float64
	for _, s := range samples {
		total += float64(s.Nanos) / 1e9
	}
	for _, v := range got {
		parts += v
	}
	if math.Abs(parts-total) > 1e-12 {
		t.Fatalf("parts sum to %v, profile total %v", parts, total)
	}
	for metric, want := range map[string]float64{"cryptoutil.cpu_s": 0.07, "wire.cpu_s": 0.02,
		"go_runtime.gc_cpu_s": 0.03, "go_runtime.other_cpu_s": 0.01, "sim.cpu_s": 0.04, "keys.cpu_s": 0} {
		if v, ok := got[metric]; !ok || math.Abs(v-want) > 1e-12 {
			t.Errorf("%s = %v (present %v), want %v", metric, v, ok, want)
		}
	}
	// Every S metric is reported, even at zero, so a layer that stops
	// running shows as 0 rather than disappearing.
	for _, m := range perLayer {
		if m.Source == srcStack && m.Name != "harness.unattributed_frac" {
			if _, ok := got[m.Name]; !ok {
				t.Errorf("cost stack lacks %s", m.Name)
			}
		}
	}
}
