package exp

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"p2pdrm/internal/core"
	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/feedback"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/trad"
	"p2pdrm/internal/workload"
)

// FlashConfig scales the baseline comparison (§I motivation): a live
// event starts and viewers arrive within Spread. Every server backend —
// the central License Manager on the baseline side, each ticket-manager
// backend on the DRM side — gets the same Workers/ServiceMS capacity;
// the architectural difference is that the baseline cannot spread load
// (per-client license state pins it to one stateful server) while the
// paper's stateless managers farm out and the P2P overlay absorbs joins.
type FlashConfig struct {
	Seed   int64
	Spread time.Duration
	// Per-backend capacity.
	Workers   int
	ServiceMS float64
}

const (
	// flashFarm is the DRM side's farm size, for the User Managers and
	// for the live event's Channel Manager partition alike.
	flashFarm = 4
	// flashLength is the DRM side's hard end; the crowd lands in the
	// first minute.
	flashLength = 30 * time.Minute
)

func (c *FlashConfig) fill() {
	if c.Spread <= 0 {
		c.Spread = 10 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.ServiceMS <= 0 {
		c.ServiceMS = 10
	}
}

// SideResult summarizes one design's behaviour under the flash crowd.
type SideResult struct {
	Median      time.Duration
	P95         time.Duration
	Max         time.Duration
	AllServedIn time.Duration
	Failures    int
	MaxQueue    int
	// Endpoints is the side's server-side endpoint snapshot (the one
	// license service for the baseline, the whole deployment for DRM).
	Endpoints map[string]svc.Metrics
}

// FlashResult pairs the two designs at one viewer count.
type FlashResult struct {
	Viewers int
	Trad    SideResult // per-file license at playback time, central server
	DRM     SideResult // end-to-end login+switch+join, stateless farms + P2P
}

// RunFlashSweep runs both designs under identical correlated arrivals at
// growing viewer counts — the series behind the paper's
// peak-load-provisioning argument: the central server's tail latency
// grows with the crowd, the distributed design's does not.
func RunFlashSweep(cfg FlashConfig, viewerCounts []int) ([]FlashResult, error) {
	cfg.fill()
	return runPoints(len(viewerCounts), func(i int) (FlashResult, error) {
		out := FlashResult{Viewers: viewerCounts[i]}
		var err error
		if out.Trad, err = runTradFlash(cfg, out.Viewers); err != nil {
			return out, err
		}
		out.DRM, err = runDRMFlash(cfg, out.Viewers)
		return out, err
	})
}

func summarize(lats []time.Duration, allDone time.Duration, failures, maxQ int) SideResult {
	return SideResult{
		Median:      feedback.Median(lats),
		P95:         feedback.Quantile(lats, 0.95),
		Max:         feedback.Quantile(lats, 1.0),
		AllServedIn: allDone,
		Failures:    failures,
		MaxQueue:    maxQ,
	}
}

func runTradFlash(cfg FlashConfig, viewers int) (SideResult, error) {
	start := time.Date(2008, 6, 23, 20, 0, 0, 0, time.UTC)
	s := sim.New(start, cfg.Seed)
	net := simnet.New(s, simnet.WithLatency(geo.LatencyModel(15*time.Millisecond, 60*time.Millisecond, 20*time.Millisecond)))
	srv, err := trad.New(net.NewNode("license.provider"), trad.Config{
		Workers:     cfg.Workers,
		ServiceTime: expService(rand.NewSource(cfg.Seed+1), cfg.ServiceMS),
		RNG:         cryptoutil.NewSeededReader(cfg.Seed + 5),
	})
	if err != nil {
		return SideResult{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	offsets := workload.FlashCrowd(rng, viewers, cfg.Spread)

	var mu sync.Mutex
	var lats []time.Duration
	var lastDone time.Duration
	failures := 0
	for i := 0; i < viewers; i++ {
		i := i
		node := net.NewNode(viewerAddr(i))
		s.Go(func() {
			s.Sleep(offsets[i])
			lat, err := trad.RequestLicense(node, "license.provider", uint64(i+1), "live-event", 10*time.Minute)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failures++
				return
			}
			lats = append(lats, lat)
			if done := s.Now().Sub(start); done > lastDone {
				lastDone = done
			}
		})
	}
	s.Run()
	_, maxQ := srv.QueueDepth()
	r := summarize(lats, lastDone, failures, maxQ)
	r.Endpoints = srv.Runtime().Snapshot()
	return r, nil
}

func runDRMFlash(cfg FlashConfig, viewers int) (SideResult, error) {
	// §V extreme case: the popular live event gets a partition of its
	// own served by a Channel Manager farm; the User Manager farm scales
	// the same way. This horizontal provisioning is exactly what the
	// baseline's per-client license state rules out.
	r, err := newRun(cfg.Seed, scenarioTraceCap, core.Options{
		UserMgrFarm:    flashFarm,
		Partitions:     []string{"live"},
		ChannelMgrFarm: flashFarm,
		UserMgrCapacity: core.CapacityModel{
			Workers: cfg.Workers, ServiceTime: expService(rand.NewSource(cfg.Seed+3), cfg.ServiceMS),
		},
		ChannelMgrCapacity: core.CapacityModel{
			Workers: cfg.Workers, ServiceTime: expService(rand.NewSource(cfg.Seed+4), cfg.ServiceMS),
		},
		PacketInterval: contentOff,
	}, flashLength, 0)
	if err != nil {
		return SideResult{}, err
	}
	sys := r.sys
	if err := sys.DeployChannel(core.FreeToView("live-event", "Live Event", "100")); err != nil {
		return SideResult{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	offsets := workload.FlashCrowd(rng, viewers, cfg.Spread)

	var mu sync.Mutex
	var lats []time.Duration // end-to-end: arrival → watching
	var lastDone time.Duration
	failures := 0
	hooks := sessionHooks{
		watching: func(elapsed time.Duration) {
			mu.Lock()
			lats = append(lats, elapsed)
			if done := sys.Sched.Now().Sub(r.start); done > lastDone {
				lastDone = done
			}
			mu.Unlock()
		},
		failed: func(error) bool {
			mu.Lock()
			failures++
			mu.Unlock()
			return true // a flash viewer tries once
		},
	}
	for i := 0; i < viewers; i++ {
		c, err := r.viewer(fmt.Sprintf("v%05d@e", i), nil)
		if err != nil {
			return SideResult{}, err
		}
		r.session(c, offsets[i], "live-event", hooks)
	}
	art := r.finish()
	res := summarize(lats, lastDone, failures, sys.ManagerQueueHighWater())
	res.Endpoints = art.Endpoints
	return res, nil
}
