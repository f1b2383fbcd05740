package exp

import (
	"fmt"
	"sync"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
)

// ChurnConfig scales the churn-resilience study: the P2P overlay's
// "membership changes as peers join and leave" (§I) must not take the
// surviving viewers' signal down — parents are replaced via the peer
// list and the channel keeps playing.
type ChurnConfig struct {
	Seed    int64
	Viewers int
	// ChurnFraction of viewers departs abruptly mid-broadcast.
	ChurnFraction float64
	// Phase is the length of each measurement phase (before/during/
	// after).
	Phase time.Duration
	// RootMaxChildren keeps the root small so most viewers depend on
	// relays.
	RootMaxChildren int
	// Parents is the per-viewer parent count (receiver-based
	// peer-division multiplexing; 1 disables PDM). Default 2.
	Parents int
}

func (c *ChurnConfig) fill() {
	if c.Viewers <= 0 {
		c.Viewers = 60
	}
	if c.ChurnFraction <= 0 || c.ChurnFraction >= 1 {
		c.ChurnFraction = 0.3
	}
	if c.Phase <= 0 {
		c.Phase = 2 * time.Minute
	}
	if c.RootMaxChildren <= 0 {
		c.RootMaxChildren = 4
	}
	if c.Parents <= 0 {
		c.Parents = 2
	}
}

// ChurnResult reports per-phase delivery health of the surviving
// viewers.
type ChurnResult struct {
	Viewers  int
	Departed int
	// Delivery rates in frames/sec averaged over survivors, per phase.
	Before float64
	During float64
	After  float64
	// Rejoins counts survivor re-parenting events; Stalls counts full
	// channel resets by the survivors' stall watchdogs.
	Rejoins int64
	Stalls  int64

	// Phases (in Artifacts) are warm-up → before → during → after.
	Artifacts
}

// RunChurn runs the broadcast with real content flowing, departs a
// fraction of the audience at once, and measures survivor delivery
// before, during and after the churn event.
func RunChurn(cfg ChurnConfig) (*ChurnResult, error) {
	cfg.fill()
	warm := time.Duration(cfg.Viewers)*500*time.Millisecond + 30*time.Second
	r, err := newRun(cfg.Seed, core.Options{
		RootMaxChildren: cfg.RootMaxChildren,
		PacketInterval:  2 * time.Second,
		RootRegion:      100,
	}, warm+3*cfg.Phase, 0)
	if err != nil {
		return nil, err
	}
	sys, start := r.sys, r.start
	if err := sys.DeployChannel(core.FreeToView("live", "Live", "100")); err != nil {
		return nil, err
	}
	r.observe([]phaseBoundary{
		{Name: "warm-up", At: start},
		{Name: "before", At: start.Add(warm)},
		{Name: "during", At: start.Add(warm + cfg.Phase)},
		{Name: "after", At: start.Add(warm + 2*cfg.Phase)},
	})

	departing := int(float64(cfg.Viewers) * cfg.ChurnFraction)
	var mu sync.Mutex
	frames := make([]int, cfg.Viewers)
	for i := 0; i < cfg.Viewers; i++ {
		i := i
		c, err := r.viewer(fmt.Sprintf("churn%04d@e", i), func(cc *client.Config) {
			cc.Parents = cfg.Parents
			cc.OnFrame = func(uint64, []byte) {
				mu.Lock()
				frames[i]++
				mu.Unlock()
			}
		})
		if err != nil {
			return nil, err
		}
		r.session(c, time.Duration(i)*500*time.Millisecond, "live", sessionHooks{failed: giveUp})
	}
	snapshotAt := func(at time.Duration) []int {
		sys.Sched.RunUntil(start.Add(at))
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), frames...)
	}

	// Warm-up, then measure phase boundaries.
	s0 := snapshotAt(warm)
	s1 := snapshotAt(warm + cfg.Phase)
	// Churn: the first `departing` viewers leave abruptly (they are the
	// oldest peers, i.e. the most load-bearing relays).
	for _, c := range r.clients[:departing] {
		c.StopWatching()
	}
	s2 := snapshotAt(warm + 2*cfg.Phase)
	s3 := snapshotAt(warm + 3*cfg.Phase)

	rate := func(a, b []int) float64 {
		sum := 0.0
		n := 0
		for i := departing; i < cfg.Viewers; i++ {
			sum += float64(b[i]-a[i]) / cfg.Phase.Seconds()
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	res := &ChurnResult{
		Viewers:   cfg.Viewers,
		Departed:  departing,
		Before:    rate(s0, s1),
		During:    rate(s1, s2),
		After:     rate(s2, s3),
		Artifacts: r.finish(),
	}
	for _, c := range r.clients[departing:] {
		res.Rejoins += c.Stats().Rejoins
		res.Stalls += c.Stats().Stalls
	}
	return res, nil
}

// RenderChurn prints the churn study.
func RenderChurn(r *ChurnResult) string {
	return fmt.Sprintf(
		"Churn resilience — %d of %d viewers depart abruptly\n"+
			"  survivor delivery before: %.2f frames/s\n"+
			"  survivor delivery during: %.2f frames/s\n"+
			"  survivor delivery after:  %.2f frames/s\n"+
			"  survivor re-parenting events: %d, stall resets: %d\n",
		r.Departed, r.Viewers, r.Before, r.During, r.After, r.Rejoins, r.Stalls)
}
