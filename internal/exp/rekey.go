package exp

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
)

// RekeyConfig scales the §IV-E design-choice ablation: the re-key
// interval trades forward-secrecy exposure (a lost key decrypts one
// interval of content) against key-distribution traffic through the
// overlay.
type RekeyConfig struct {
	Seed      int64
	Viewers   int
	Watch     time.Duration
	Intervals []time.Duration
}

func (c *RekeyConfig) fill() {
	if c.Viewers <= 0 {
		c.Viewers = 30
	}
	if c.Watch <= 0 {
		c.Watch = 20 * time.Minute
	}
	if len(c.Intervals) == 0 {
		c.Intervals = []time.Duration{15 * time.Second, time.Minute, 5 * time.Minute}
	}
}

// RekeyPoint is one interval's measured overhead.
type RekeyPoint struct {
	Interval time.Duration
	// KeyMsgs is the total key-push messages through the overlay.
	KeyMsgs int64
	// PerViewerMinute normalizes KeyMsgs by viewers × minutes.
	PerViewerMinute float64
	// Undecryptable counts frames viewers could not decrypt (late keys
	// would show up here — the §IV-E advance-distribution guarantee).
	Undecryptable int64
	// Frames actually delivered.
	Frames int64
}

// RunRekeyAblation measures each interval under identical viewing load,
// independent points spread over the host's CPUs.
func RunRekeyAblation(cfg RekeyConfig) ([]RekeyPoint, error) {
	cfg.fill()
	return runPoints(len(cfg.Intervals), func(i int) (RekeyPoint, error) {
		return runRekeyPoint(cfg, cfg.Intervals[i])
	})
}

func runRekeyPoint(cfg RekeyConfig, interval time.Duration) (RekeyPoint, error) {
	warm := time.Duration(cfg.Viewers)*time.Second + 30*time.Second
	r, err := newRun(cfg.Seed, core.Options{
		RekeyInterval:   interval,
		PacketInterval:  2 * time.Second,
		RootRegion:      100,
		RootMaxChildren: 4, // deep tree: keys relay through viewers
	}, warm+cfg.Watch, 0)
	if err != nil {
		return RekeyPoint{}, err
	}
	sys := r.sys
	if err := sys.DeployChannel(core.FreeToView("live", "Live", "100")); err != nil {
		return RekeyPoint{}, err
	}
	var mu sync.Mutex
	var frames int64
	for i := 0; i < cfg.Viewers; i++ {
		c, err := r.viewer(fmt.Sprintf("rk%04d@e", i), func(cc *client.Config) {
			cc.OnFrame = func(uint64, []byte) {
				mu.Lock()
				frames++
				mu.Unlock()
			}
		})
		if err != nil {
			return RekeyPoint{}, err
		}
		r.session(c, time.Duration(i)*time.Second, "live", sessionHooks{failed: giveUp})
	}
	sys.Sched.RunUntil(r.start.Add(warm))

	// Zero the counters at measurement start by snapshotting.
	baseMsgs := overlayKeyMsgs(sys, r.clients)
	baseUndec := overlayUndecryptable(r.clients)
	mu.Lock()
	baseFrames := frames
	mu.Unlock()

	r.finish()

	pt := RekeyPoint{Interval: interval}
	pt.KeyMsgs = overlayKeyMsgs(sys, r.clients) - baseMsgs
	pt.Undecryptable = overlayUndecryptable(r.clients) - baseUndec
	mu.Lock()
	pt.Frames = frames - baseFrames
	mu.Unlock()
	pt.PerViewerMinute = float64(pt.KeyMsgs) / (float64(cfg.Viewers) * cfg.Watch.Minutes())
	return pt, nil
}

func overlayKeyMsgs(sys *core.System, clients []*client.Client) int64 {
	total := sys.Servers["live"].Peer().Stats().KeysForwarded
	for _, c := range clients {
		if p := c.Peer(); p != nil {
			total += p.Stats().KeysForwarded
		}
	}
	return total
}

func overlayUndecryptable(clients []*client.Client) int64 {
	var total int64
	for _, c := range clients {
		if p := c.Peer(); p != nil {
			total += p.Stats().PacketsUndecrypt
		}
	}
	return total
}

// RenderRekey prints the ablation.
func RenderRekey(points []RekeyPoint) string {
	var b strings.Builder
	b.WriteString("Re-key interval ablation (§IV-E): exposure window vs key traffic\n")
	fmt.Fprintf(&b, "%10s %10s %16s %12s %8s\n",
		"interval", "key-msgs", "msgs/viewer-min", "undecrypt", "frames")
	for _, p := range points {
		fmt.Fprintf(&b, "%10s %10d %16.2f %12d %8d\n",
			p.Interval, p.KeyMsgs, p.PerViewerMinute, p.Undecryptable, p.Frames)
	}
	b.WriteString("(a lost key exposes exactly one interval of content; shorter intervals\n")
	b.WriteString(" cost proportionally more key pushes — the paper picks ~1 minute)\n")
	return b.String()
}
