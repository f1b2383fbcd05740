package exp

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"p2pdrm/internal/core"
	"p2pdrm/internal/feedback"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/workload"
)

// FarmConfig scales the §V scalability study: a fixed arrival burst is
// replayed against deployments with growing manager farm sizes; the
// stateless handshakes mean added backends divide the load cleanly.
type FarmConfig struct {
	Seed      int64
	Viewers   int
	Spread    time.Duration
	FarmSizes []int
	// Per-backend capacity (deliberately tight so farm size matters).
	Workers   int
	ServiceMS float64
}

func (c *FarmConfig) fill() {
	if c.Viewers <= 0 {
		c.Viewers = 400
	}
	if c.Spread <= 0 {
		c.Spread = 10 * time.Second
	}
	if len(c.FarmSizes) == 0 {
		c.FarmSizes = []int{1, 2, 4, 8}
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.ServiceMS <= 0 {
		c.ServiceMS = 8
	}
}

// FarmPoint is one farm size's outcome.
type FarmPoint struct {
	Farm         int
	LoginMedian  time.Duration
	LoginP95     time.Duration
	SwitchMedian time.Duration
	SwitchP95    time.Duration
	JoinMedian   time.Duration
	Failures     int
	MaxQueue     int
	// Endpoints is the deployment's endpoint snapshot at this point.
	Endpoints map[string]svc.Metrics
}

// RunFarmScaling replays the burst against each farm size, independent
// points spread over the host's CPUs. Each point owns its own scheduler,
// so the results are identical to a sequential loop's.
func RunFarmScaling(cfg FarmConfig) ([]FarmPoint, error) {
	cfg.fill()
	return runPoints(len(cfg.FarmSizes), func(i int) (FarmPoint, error) {
		return runFarmPoint(cfg, cfg.FarmSizes[i])
	})
}

func runFarmPoint(cfg FarmConfig, farm int) (FarmPoint, error) {
	r, err := newRun(cfg.Seed, core.Options{
		UserMgrFarm:    farm,
		Partitions:     []string{"p1"},
		ChannelMgrFarm: farm,
		UserMgrCapacity: core.CapacityModel{
			Workers: cfg.Workers, ServiceTime: expService(cfg.Seed+11, cfg.ServiceMS),
		},
		ChannelMgrCapacity: core.CapacityModel{
			Workers: cfg.Workers, ServiceTime: expService(cfg.Seed+12, cfg.ServiceMS),
		},
		PacketInterval: 24 * 365 * time.Hour,
	}, 10*time.Minute, 0)
	if err != nil {
		return FarmPoint{}, err
	}
	sys := r.sys
	if err := sys.DeployChannel(core.FreeToView("live-event", "Live Event", "100")); err != nil {
		return FarmPoint{}, err
	}
	corpus := feedback.NewCorpus()
	var mu sync.Mutex
	failures := 0
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	offsets := workload.FlashCrowd(rng, cfg.Viewers, cfg.Spread)
	for i := 0; i < cfg.Viewers; i++ {
		c, err := r.viewer(fmt.Sprintf("f%05d@e", i), nil)
		if err != nil {
			return FarmPoint{}, err
		}
		// One attempt per viewer; either way its feedback log is in.
		r.session(c, offsets[i], "live-event", sessionHooks{
			watching: func(time.Duration) { corpus.Submit(c.FeedbackLog()) },
			failed: func(error) bool {
				mu.Lock()
				failures++
				mu.Unlock()
				corpus.Submit(c.FeedbackLog())
				return true
			},
		})
	}
	art := r.finish()

	lat := func(r feedback.Round, q float64) time.Duration {
		var ds []time.Duration
		for _, smp := range corpus.Samples() {
			if smp.Round == r && smp.OK {
				ds = append(ds, smp.Latency)
			}
		}
		if q == 0.5 {
			return feedback.Median(ds)
		}
		return feedback.Quantile(ds, q)
	}
	return FarmPoint{
		Farm:         farm,
		LoginMedian:  lat(feedback.Login2, 0.5),
		LoginP95:     lat(feedback.Login2, 0.95),
		SwitchMedian: lat(feedback.Switch2, 0.5),
		SwitchP95:    lat(feedback.Switch2, 0.95),
		JoinMedian:   lat(feedback.Join, 0.5),
		Failures:     failures,
		MaxQueue:     sys.ManagerQueueHighWater(),
		Endpoints:    art.Endpoints,
	}, nil
}
