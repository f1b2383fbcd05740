package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/geo"
)

// retainedHeap is the live heap after two collections (the second
// finishes what the first's finalizers and sweeps released).
func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestPerViewerRetainedHeapBudget is the per-viewer memory ledger's
// guard: the protocol state one real viewer at playback keeps alive —
// client, policy counters, overlay peer with its endpoints, key ring and
// ticket caches, its account and directory rows on the managers — must
// stay under 64 kB, or the largest real-protocol crowd a host can hold
// shrinks again. It measures ≈ 30 kB; it was 153 kB when every endpoint
// and call counter carried a dense 6 kB histogram and every peer two
// pre-sized 256-entry ticket maps. The deployment is protocol-only, as
// in the week and flash-crowd scenarios: a peer's 32 kB packet-dedup
// window, carved from the arena at its first relayed packet, is
// data-plane state and not part of this budget.
func TestPerViewerRetainedHeapBudget(t *testing.T) {
	const viewers, budget = 200, 64 << 10
	st := newStack(t, func(o *Options) { o.PacketInterval = 24 * 365 * time.Hour })
	st.deployDefault(t)
	before := retainedHeap()
	clients := make([]*client.Client, viewers)
	var watching int
	for i := range clients {
		c := st.viewer(t, fmt.Sprintf("v%d@e", i), geo.Addr(100, 1+i%40, i+1), nil)
		clients[i] = c
		arrive := time.Duration(i) * 300 * time.Millisecond
		st.sys.Sched.Go(func() {
			st.sys.Sched.Sleep(arrive)
			if err := c.Login(); err != nil {
				t.Errorf("login: %v", err)
				return
			}
			if err := c.Watch("news"); err != nil {
				t.Errorf("watch: %v", err)
				return
			}
			watching++
		})
	}
	st.sys.Sched.RunUntil(t0.Add(2 * time.Minute))
	after := retainedHeap()
	if watching != viewers {
		t.Fatalf("%d of %d viewers reached playback", watching, viewers)
	}
	per := (int64(after) - int64(before)) / viewers
	t.Logf("retained heap per viewer at playback: %d bytes", per)
	if per > budget {
		t.Errorf("a viewer at playback retains %d bytes, budget %d", per, budget)
	}
	runtime.KeepAlive(clients)
	st.sys.StopAll()
}
