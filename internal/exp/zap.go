package exp

import (
	"fmt"
	"sync"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/feedback"
)

// ZapConfig scales the channel-switching (zapping) latency study. §II's
// Viewing Experience requirement: "the channel switching delay should be
// minimal, similar to TV services provided by satellite (around 3
// seconds)". Zap time here is the full user-visible pipeline: SWITCH1 +
// SWITCH2 (ticket + peers), JOIN (session + content keys), and the wait
// for the first decrypted frame of the new channel.
type ZapConfig struct {
	Seed     int64
	Viewers  int
	Channels int
	// Zaps per viewer measured after warm-up.
	Zaps int
}

// zapPacketInterval paces content; a zap cannot beat the gap to the
// next produced frame, exactly like waiting for the next keyframe in a
// real encoder.
const zapPacketInterval = 500 * time.Millisecond

func (c *ZapConfig) fill() {
	if c.Viewers <= 0 {
		c.Viewers = 20
	}
	if c.Channels <= 0 {
		c.Channels = 4
	}
	if c.Zaps <= 0 {
		c.Zaps = 5
	}
}

// ZapResult summarizes zap-time statistics.
type ZapResult struct {
	Samples int
	Median  time.Duration
	P95     time.Duration
	Max     time.Duration

	// Phases (in Artifacts) are tune-in → zapping.
	Artifacts
}

// RunZap measures switch-to-first-frame latency across a pool of viewers
// zapping between live channels.
func RunZap(cfg ZapConfig) (*ZapResult, error) {
	cfg.fill()
	warm := time.Duration(cfg.Viewers) * time.Second
	total := warm + time.Duration(cfg.Zaps+2)*25*time.Second
	r, err := newRun(cfg.Seed, scenarioTraceCap, core.Options{
		PacketInterval: zapPacketInterval,
		RootRegion:     100,
	}, total, 0)
	if err != nil {
		return nil, err
	}
	sys := r.sys
	channelIDs := make([]string, cfg.Channels)
	for i := range channelIDs {
		id := fmt.Sprintf("zap%02d", i)
		channelIDs[i] = id
		if err := sys.DeployChannel(core.FreeToView(id, "Zap "+id, "100")); err != nil {
			return nil, err
		}
	}
	r.observe([]phaseBoundary{
		{Name: "tune-in", At: r.start},
		{Name: "zapping", At: r.start.Add(warm)},
	})

	var mu sync.Mutex
	var zaps []time.Duration
	for i := 0; i < cfg.Viewers; i++ {
		i := i
		var frameCh func()
		c, err := r.viewer(fmt.Sprintf("zap%04d@e", i), func(cc *client.Config) {
			cc.OnFrame = func(uint64, []byte) {
				mu.Lock()
				f := frameCh
				mu.Unlock()
				if f != nil {
					f()
				}
			}
		})
		if err != nil {
			return nil, err
		}
		sys.Sched.Go(func() {
			sys.Sched.Sleep(time.Duration(i) * time.Second)
			if err := c.Login(); err != nil {
				return
			}
			for z := 0; z <= cfg.Zaps; z++ {
				target := channelIDs[(i+z)%len(channelIDs)]
				w := sys.Sched.NewWaiter()
				mu.Lock()
				frameCh = func() { w.Deliver(nil) }
				mu.Unlock()
				start := sys.Sched.Now()
				if err := c.Watch(target); err != nil {
					continue
				}
				if _, err := w.Wait(30 * time.Second); err == nil && z > 0 {
					// z == 0 is the initial tune-in, not a zap.
					mu.Lock()
					zaps = append(zaps, sys.Sched.Now().Sub(start))
					mu.Unlock()
				}
				sys.Sched.Sleep(20 * time.Second)
			}
			c.StopWatching()
		})
	}
	art := r.finish()
	return &ZapResult{
		Samples:   len(zaps),
		Median:    feedback.Median(zaps),
		P95:       feedback.Quantile(zaps, 0.95),
		Max:       feedback.Quantile(zaps, 1.0),
		Artifacts: art,
	}, nil
}

// RenderZap prints the zap study against the §II requirement.
func RenderZap(r *ZapResult) string {
	return fmt.Sprintf(
		"Channel-switch (zap) latency — switch protocol + join + first frame\n"+
			"  samples: %d\n"+
			"  median:  %v\n"+
			"  p95:     %v\n"+
			"  max:     %v\n"+
			"(§II requirement: similar to satellite TV, around 3 seconds)\n",
		r.Samples, r.Median.Round(time.Millisecond),
		r.P95.Round(time.Millisecond), r.Max.Round(time.Millisecond))
}
