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
// stay under 56 kB, or the largest real-protocol crowd a host can hold
// shrinks again. It measures ≈ 27 kB; it was 30 kB when the key ring
// built an AES-GCM instance for each held iteration whether or not a
// packet ever arrived under it, and 153 kB when every endpoint and call
// counter carried a dense 6 kB histogram and every peer two pre-sized
// 256-entry ticket maps. The deployment is protocol-only, as
// in the week and flash-crowd scenarios: a peer's 32 kB packet-dedup
// window, carved from the arena at its first relayed packet, is
// data-plane state and not part of this budget.
func TestPerViewerRetainedHeapBudget(t *testing.T) {
	const viewers, budget = 200, 56 << 10
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

// TestControlPlaneAllocBudget is the control-plane byte ledger's guard,
// the churn twin of the retained-heap budget above: what one viewer's
// whole journey allocates — login, first channel, one switch, ten content
// re-keys arriving over the overlay while it watches, leave — on a
// protocol-only deployment. Every AEAD that is built but never used,
// every encoder that guesses its size and every list re-encoded per
// caller lands here. It measures 100.6 kB (± 0.02 % run to run) and was
// 138.5 kB before those three were removed. The budget is that + 10 %,
// not more, because the re-keys are in the journey to catch one thing: a
// peer building an AES-GCM instance (≈ 1.3 kB) for every key it is
// handed reads 114.9 kB here and must not fit.
func TestControlPlaneAllocBudget(t *testing.T) {
	const viewers, rekeys, budget = 200, 10, 110 << 10
	never := 24 * 365 * time.Hour
	st := newStack(t, func(o *Options) { o.PacketInterval, o.RekeyInterval = never, never })
	st.deployDefault(t)
	clients := make([]*client.Client, viewers)
	for i := range clients {
		clients[i] = st.viewer(t, fmt.Sprintf("v%d@e", i), geo.Addr(100, 1+i%40, i+1), nil)
	}
	sched := st.sys.Sched
	arrivals := time.Duration(viewers) * 300 * time.Millisecond
	leave := t0.Add(arrivals + time.Minute)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var done int
	var delivered int64
	for i, c := range clients {
		arrive := time.Duration(i) * 300 * time.Millisecond
		sched.Go(func() {
			sched.Sleep(arrive)
			if err := c.Login(); err != nil {
				t.Errorf("login: %v", err)
				return
			}
			for _, ch := range []string{"news", "sports"} {
				if err := c.Watch(ch); err != nil {
					t.Errorf("watch %s: %v", ch, err)
					return
				}
			}
			sched.Sleep(leave.Sub(sched.Now()))
			delivered += c.Peer().Stats().KeysReceived
			c.StopWatching()
			done++
		})
	}
	sched.Go(func() {
		sched.Sleep(arrivals + 20*time.Second) // everyone is on "sports"
		for i := 0; i < rekeys; i++ {
			if _, err := st.sys.Servers["sports"].ForceRekey(); err != nil {
				t.Errorf("rekey: %v", err)
			}
			sched.Sleep(2 * time.Second)
		}
	})
	sched.RunUntil(leave.Add(10 * time.Second))
	runtime.ReadMemStats(&after)
	if done != viewers {
		t.Fatalf("%d of %d viewers completed the journey", done, viewers)
	}
	if delivered < viewers*rekeys {
		t.Fatalf("%d re-keys reached the viewers, want >= %d", delivered, viewers*rekeys)
	}
	per := int64(after.TotalAlloc-before.TotalAlloc) / viewers
	t.Logf("allocated per viewer journey (login, watch, switch, %d re-keys, leave): %d bytes", rekeys, per)
	if per > budget {
		t.Errorf("a viewer journey allocates %d bytes, budget %d", per, budget)
	}
	st.sys.StopAll()
}
