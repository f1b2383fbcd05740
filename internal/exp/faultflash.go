package exp

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/feedback"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/workload"
)

// FaultFlashConfig parameterizes the resilience scenario: the flash
// crowd of RunFlashSweep's DRM side, with faults injected while the
// crowd is arriving — per-link loss on every path, a worse last mile
// for a subset of viewers, a transient partition cutting a second
// subset off the Channel Manager, a full User Manager farm outage
// mid-crowd, and one Channel Manager backend crash. The question the
// scenario answers: does every viewer still reach playback, and how is
// the recovery distributed across transport retries, circuit breaking,
// protocol restarts, and session-level retry?
type FaultFlashConfig struct {
	Seed    int64
	Viewers int           // default 120
	Spread  time.Duration // arrival spread after event start; default 20s
	// ChannelMgrFarm is the live partition's farm size; default mirrors
	// §VI (2 CM).
	ChannelMgrFarm int
}

func (c *FaultFlashConfig) fill() {
	if c.Viewers <= 0 {
		c.Viewers = 120
	}
	if c.Spread <= 0 {
		c.Spread = 20 * time.Second
	}
	if c.ChannelMgrFarm <= 0 {
		c.ChannelMgrFarm = 2
	}
}

// The fault schedule. Everything keys off the deterministic scheduler:
// the same seed replays the same outages against the same arrivals.
const (
	// Per-backend capacity (same roles as FlashConfig) and the §VI User
	// Manager farm size.
	faultWorkers     = 2
	faultServiceMS   = 8
	faultUserMgrFarm = 2

	// faultLinkLoss is the loss probability on every link;
	// faultDegradedShare of viewers get faultDegradedLoss on their
	// infrastructure links instead (a bad last mile).
	faultLinkLoss      = 0.02
	faultDegradedShare = 0.10
	faultDegradedLoss  = 0.15
	// The whole User Manager farm goes down faultCrashAt after event
	// start and restarts faultCrashFor later. The VIP black-holes for the
	// window — the paper's managers are what must be survivable.
	faultCrashAt  = 10 * time.Second
	faultCrashFor = 15 * time.Second
	// One Channel Manager backend crashes and restarts; its VIP
	// health-checks around it, in-flight requests are lost.
	faultCMCrashAt  = 15 * time.Second
	faultCMCrashFor = 10 * time.Second
	// faultPartitionShare of viewers lose their link to the Channel
	// Manager VIP at faultPartitionAt, healed faultPartitionFor later.
	faultPartitionShare = 0.15
	faultPartitionAt    = 5 * time.Second
	faultPartitionFor   = 10 * time.Second
	// faultDeadline bounds the whole scenario: every viewer must be
	// watching within it of event start.
	faultDeadline = 4 * time.Minute
)

// FaultFlashResult reports the outcome and how recovery was distributed
// across the resilience layers.
type FaultFlashResult struct {
	Viewers       int
	Watching      int // viewers that reached playback by the deadline
	Degraded      int // viewers on a degraded last mile
	Partitioned   int // viewers behind the transient partition
	AllWatchingIn time.Duration
	Median        time.Duration
	P95           time.Duration
	Max           time.Duration

	SessionRetries   int64 // full login+watch sessions re-run by viewers
	ProtocolRestarts int64 // round-2 timeout → protocol restarted at round 1
	TransportRetries int64 // attempts beyond each call's first
	BreakerOpens     int64 // circuit-open transitions across all clients
	BreakerRejects   int64 // calls rejected fast by an open circuit

	// Phases (in Artifacts) are the fault timeline's endpoint deltas:
	// ramp → partition → um-outage → cm-crash → healed.
	Artifacts
}

// Fingerprint digests every counter and latency into one line. Two runs
// with the same seed must produce identical fingerprints — the
// determinism property the golden tests pin for the fault-free runs,
// extended here to the faulty ones.
func (r *FaultFlashResult) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v=%d w=%d deg=%d part=%d all=%d med=%d p95=%d max=%d",
		r.Viewers, r.Watching, r.Degraded, r.Partitioned,
		r.AllWatchingIn.Microseconds(), r.Median.Microseconds(),
		r.P95.Microseconds(), r.Max.Microseconds())
	fmt.Fprintf(&b, " sess=%d restart=%d retry=%d opens=%d rejects=%d sent=%d drop=%d",
		r.SessionRetries, r.ProtocolRestarts, r.TransportRetries,
		r.BreakerOpens, r.BreakerRejects, r.Net.Sent, r.Net.Dropped)
	for _, name := range sortedCallNames(r.Calls) {
		s := r.Calls[name]
		fmt.Fprintf(&b, " %s=%d/%d/%d/%d", name, s.Attempts, s.Retries, s.Failures, s.BreakerRejects)
	}
	return b.String()
}

func sortedCallNames(m map[string]svc.CallStats) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// impatientClient is the player tuning of the fault scenarios: a short
// per-attempt deadline and a quick breaker, so transport retries and
// breaker recovery fit inside one session.
func impatientClient(cc *client.Config) {
	cc.RPCTimeout = 3 * time.Second
	cc.RPCAttempts = 3
	cc.BreakerThreshold = 3
	cc.BreakerCooldown = 4 * time.Second
}

// RunFaultFlash runs the faulty flash crowd.
func RunFaultFlash(cfg FaultFlashConfig) (*FaultFlashResult, error) {
	cfg.fill()
	r, err := newRun(cfg.Seed, scenarioTraceCap, core.Options{
		UserMgrFarm:    faultUserMgrFarm,
		Partitions:     []string{"live"},
		ChannelMgrFarm: cfg.ChannelMgrFarm,
		UserMgrCapacity: core.CapacityModel{
			Workers: faultWorkers, ServiceTime: expService(rand.NewSource(cfg.Seed+3), faultServiceMS),
		},
		ChannelMgrCapacity: core.CapacityModel{
			Workers: faultWorkers, ServiceTime: expService(rand.NewSource(cfg.Seed+4), faultServiceMS),
		},
		PacketInterval: contentOff,
		PacketLoss:     faultLinkLoss,
	}, faultDeadline, drain)
	if err != nil {
		return nil, err
	}
	sys, start := r.sys, r.start
	if err := sys.DeployChannel(core.FreeToView("live-event", "Live Event", "100")); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	offsets := workload.FlashCrowd(rng, cfg.Viewers, cfg.Spread)
	degraded := workload.PickSubset(rng, cfg.Viewers, int(float64(cfg.Viewers)*faultDegradedShare))
	infra := append(sys.InfraAddrs(), core.AddrChannelRoot("live-event"))
	for _, i := range degraded {
		for _, dst := range infra {
			sys.Net.SetLinkLoss(viewerAddr(i), dst, faultDegradedLoss)
		}
	}
	res := &FaultFlashResult{Viewers: cfg.Viewers, Degraded: len(degraded)}
	res.Partitioned = r.partition(rng, cfg.Viewers, faultPartitionShare,
		core.AddrChannelMgr("live"), start.Add(faultPartitionAt), faultPartitionFor)
	for _, b := range sys.UserMgrBackends() {
		sys.Net.ScheduleDown(b, start.Add(faultCrashAt), faultCrashFor)
	}
	if cmb := sys.ChannelMgrBackends(); len(cmb) > 0 {
		sys.Net.ScheduleDown(cmb[0], start.Add(faultCMCrashAt), faultCMCrashFor)
	}
	r.observe([]phaseBoundary{
		{Name: "ramp", At: start},
		{Name: "partition", At: start.Add(faultPartitionAt)},
		{Name: "um-outage", At: start.Add(faultCrashAt)},
		{Name: "cm-crash", At: start.Add(faultCMCrashAt)},
		{Name: "healed", At: start.Add(faultCrashAt + faultCrashFor)},
	})

	var mu sync.Mutex
	var lats []time.Duration // arrival → watching
	hooks := sessionHooks{
		watching: func(elapsed time.Duration) {
			mu.Lock()
			res.Watching++
			lats = append(lats, elapsed)
			if done := sys.Sched.Now().Sub(start); done > res.AllWatchingIn {
				res.AllWatchingIn = done
			}
			mu.Unlock()
		},
		retried: func() {
			mu.Lock()
			res.SessionRetries++
			mu.Unlock()
		},
	}
	for i := 0; i < cfg.Viewers; i++ {
		c, err := r.viewer(fmt.Sprintf("v%05d@e", i), impatientClient)
		if err != nil {
			return nil, err
		}
		r.session(c, offsets[i], "live-event", hooks)
	}
	res.Artifacts = r.finish()

	res.Median = feedback.Median(lats)
	res.P95 = feedback.Quantile(lats, 0.95)
	res.Max = feedback.Quantile(lats, 1.0)
	for _, c := range r.clients {
		st := c.Stats()
		res.ProtocolRestarts += st.Restarts
		res.TransportRetries += st.Retries
		res.BreakerOpens += st.BreakerOpens
	}
	for _, cs := range res.Calls {
		res.BreakerRejects += cs.BreakerRejects
	}
	return res, nil
}
