package main

import (
	"os"
	"strings"
)

const repoPrefix = "p2pdrm/internal/"

// gcFrames mark a stack as garbage-collector work when no repo frame is
// on it (background mark, sweep and scavenge workers). GC assists run on
// the allocating goroutine's stack and are charged to the layer that
// allocated, which is where the cost was incurred.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcMarkDone":     true,
	"runtime.gcStart":        true,
}

// stackOwner returns the cost-stack metric a sample is charged to: the
// deepest p2pdrm/internal/<pkg> frame owns it — so stdlib and runtime
// frames below it (crypto/ed25519 under cryptoutil, mallocgc under wire)
// are charged to that package — then the harness's own frames, and a
// stack with neither belongs to the Go runtime.
func stackOwner(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			if layer, ok := layerOf[pkg]; ok {
				return layer + ".cpu_s"
			}
			return "other.cpu_s"
		}
		// The harness is package main under `go run` and
		// p2pdrm/benchmark inside its own test binary.
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "p2pdrm/benchmark.") {
			return "harness.cpu_s"
		}
	}
	for _, fn := range stack {
		if gcFrames[fn] {
			return "go_runtime.gc_cpu_s"
		}
	}
	return "go_runtime.other_cpu_s"
}

// costStack charges every sample to exactly one S metric, so the parts
// sum to the profile total by construction. Every S metric is present in
// the result, at 0 when the layer never ran.
func costStack(samples []cpuSample) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		if m.Source == srcStack && strings.HasSuffix(m.Name, "cpu_s") {
			out[m.Name] = 0
		}
	}
	for _, s := range samples {
		out[stackOwner(s.Stack)] += float64(s.Nanos) / 1e9
	}
	return out
}

func costStackFile(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	samples, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	return costStack(samples), nil
}
