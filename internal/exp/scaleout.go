package exp

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"p2pdrm/internal/core"
	"p2pdrm/internal/feedback"
	"p2pdrm/internal/workload"
)

// ScaleOutConfig parameterizes the elastic-farm scenario: a flash-crowd
// sweep whose arrival rate grows 10× across three phases while User
// Manager members join the farm's VIP pool live at the phase boundaries.
// The question the scenario answers: does growing the §V farm live keep
// login p95 flat as the crowd grows 10× — load shedding absorbing the
// bursts, every added member taking its share, and no login lost to a
// membership change?
type ScaleOutConfig struct {
	Seed int64
	// BaseViewers arrive in phase 1; phase 2 brings the total to 3× and
	// phase 3 to 10× (the growth the tentpole asks for). Default 40.
	BaseViewers int
	// PhaseLen is the phase-1 and phase-2 window; phase 3 runs twice as
	// long (it carries 70% of the crowd). Default 40s. The phase-1
	// flash-crowd arrival spread is PhaseLen/4; later phases scale it
	// with their length, so burst intensity grows with the arrival count
	// the way a longer event ramp does.
	PhaseLen time.Duration
	// FaultPartition overlaps the first scale-out with a transient
	// partition: scalePartitionShare of viewers lose their link to the
	// User Manager VIP for scalePartitionFor, starting exactly at the
	// boundary-1 member adds. The farm is unreachable for those viewers
	// until the heal — session retry must carry them to playback anyway.
	FaultPartition bool
}

func (c *ScaleOutConfig) fill() {
	if c.BaseViewers <= 0 {
		c.BaseViewers = 40
	}
	if c.PhaseLen <= 0 {
		c.PhaseLen = 40 * time.Second
	}
}

const (
	// Per-member capacity (an M/G/c queue per backend).
	scaleWorkers   = 2
	scaleServiceMS = 80
	// scaleUserMgrFarm is the starting member count. Boundary 1 adds 2
	// members, boundary 2 adds 3 — member count tracks arrival rate
	// (2 → 4 → 7), which is what keeps per-member load flat.
	scaleUserMgrFarm = 2
	// scaleLoginHighWater arms load shedding on the login endpoints. The
	// VIP's round-robin spreads a burst evenly over the members, so the
	// mark sits at the members' worker count for shedding to engage.
	scaleLoginHighWater = 2
	// scaleUserTicketLifetime is short so phase-1 viewers renew mid-run,
	// logging in again through the grown farm.
	scaleUserTicketLifetime = 2 * time.Minute
	// scaleDeadline bounds the scenario: every viewer must be watching
	// within it of event start.
	scaleDeadline = 6 * time.Minute

	scalePartitionShare = 0.30
	scalePartitionFor   = 15 * time.Second
)

// ScalePhase is one growth step of the sweep with its harness-measured
// login outcome.
type ScalePhase struct {
	Name     string
	Arrivals int // viewers arriving in this phase
	Total    int // cumulative viewers at phase end
	Members  int // farm members serving the phase
	Watching int // this phase's arrivals that reached playback
	// LoginP50/LoginP95 are over arrival→login-complete durations of
	// this phase's arrivals (retries, sheds and backoff included —
	// what a viewer experienced).
	LoginP50 time.Duration
	LoginP95 time.Duration
	// Shed counts login requests refused at the high-water mark during
	// the phase window.
	Shed int64
}

// ScaleOutResult reports the sweep outcome and the farm and shed
// machinery's counters.
type ScaleOutResult struct {
	Viewers      int
	Watching     int
	FailedLogins int // viewers that never completed a login by the deadline
	MembersStart int
	MembersEnd   int
	// Login2 is the LOGIN2 count each member served, in the order the
	// members joined the farm.
	Login2      []int64
	Partitioned int // viewers behind the FaultPartition (0 without it)

	Shed      int64 // server-side: login requests refused at high water
	Overloads int64 // client-side: shed answers absorbed by retry

	SessionRetries int64
	AllWatchingIn  time.Duration
	PhaseStats     []ScalePhase

	// Phases (in Artifacts) are the growth timeline's endpoint deltas
	// (x1 → x3 → x10).
	Artifacts
}

// fingerprint digests every counter and per-phase latency into one
// line; two runs with the same seed must match byte-for-byte.
func (r *ScaleOutResult) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v=%d w=%d failed=%d members=%d-%d login2=%s part=%d",
		r.Viewers, r.Watching, r.FailedLogins, r.MembersStart, r.MembersEnd,
		joinCounts(r.Login2), r.Partitioned)
	fmt.Fprintf(&b, " shed=%d over=%d sess=%d all=%d sent=%d drop=%d",
		r.Shed, r.Overloads,
		r.SessionRetries, r.AllWatchingIn.Microseconds(),
		r.Net.Sent, r.Net.Dropped)
	for _, ph := range r.PhaseStats {
		fmt.Fprintf(&b, " %s=%d/%d/%d/%d/%d", ph.Name, ph.Arrivals, ph.Watching,
			ph.LoginP50.Microseconds(), ph.LoginP95.Microseconds(), ph.Shed)
	}
	for _, name := range sortedCallNames(r.Calls) {
		s := r.Calls[name]
		fmt.Fprintf(&b, " %s=%d/%d/%d/%d", name, s.Attempts, s.Retries, s.Failures, s.Overloads)
	}
	return b.String()
}

// p95Spread returns the ratio of the worst to the best per-phase login
// p95 — the "flat within 20%" acceptance check reads this (1.0 =
// perfectly flat).
func (r *ScaleOutResult) p95Spread() float64 {
	var min, max time.Duration
	for _, ph := range r.PhaseStats {
		if ph.LoginP95 <= 0 {
			continue
		}
		if min == 0 || ph.LoginP95 < min {
			min = ph.LoginP95
		}
		if ph.LoginP95 > max {
			max = ph.LoginP95
		}
	}
	if min == 0 {
		return 0
	}
	return float64(max) / float64(min)
}

// RunScaleOut runs the elastic-farm flash-crowd sweep.
func RunScaleOut(cfg ScaleOutConfig) (*ScaleOutResult, error) {
	cfg.fill()
	// The span ring is armed on every runtime, including members added
	// mid-run: traced logins that land on a shedding member leave shed
	// spans threaded into their journeys.
	r, err := newRun(cfg.Seed, scenarioTraceCap, core.Options{
		UserMgrFarm:    scaleUserMgrFarm,
		Partitions:     []string{"live"},
		LoginHighWater: scaleLoginHighWater,
		UserMgrCapacity: core.CapacityModel{
			Workers: scaleWorkers, ServiceTime: expService(rand.NewSource(cfg.Seed+3), scaleServiceMS),
		},
		UserTicketLifetime: scaleUserTicketLifetime,
		PacketInterval:     contentOff,
	}, scaleDeadline, drain)
	if err != nil {
		return nil, err
	}
	sys, start := r.sys, r.start
	if err := sys.DeployChannel(core.FreeToView("live-event", "Live Event", "100")); err != nil {
		return nil, err
	}

	// The growth plan: arrivals per phase step the cumulative crowd
	// 1× → 3× → 10×, and the member adds at each boundary track the
	// arrival rate (phase 3 runs 2× as long, so its rate is 3.5× phase
	// 1's — 7 members keep per-member load level with 2 members at 1×).
	type phasePlan struct {
		name     string
		arrivals int
		start    time.Time
		length   time.Duration
		adds     int // members added at this phase's start boundary
		members  int // members serving the phase
	}
	base := cfg.BaseViewers
	plans := []phasePlan{
		{name: "x1", arrivals: base, start: start, length: cfg.PhaseLen, adds: 0, members: scaleUserMgrFarm},
		{name: "x3", arrivals: 2 * base, start: start.Add(cfg.PhaseLen), length: cfg.PhaseLen, adds: 2, members: scaleUserMgrFarm + 2},
		{name: "x10", arrivals: 7 * base, start: start.Add(2 * cfg.PhaseLen), length: 2 * cfg.PhaseLen, adds: 3, members: scaleUserMgrFarm + 5},
	}
	viewers := 0
	for _, p := range plans {
		viewers += p.arrivals
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	offsets := make([]time.Duration, 0, viewers)
	phaseOf := make([]int, 0, viewers)
	for pi, p := range plans {
		spread := cfg.PhaseLen / 4 * time.Duration(p.length/cfg.PhaseLen)
		for _, off := range workload.FlashCrowd(rng, p.arrivals, spread) {
			offsets = append(offsets, p.start.Sub(start)+off)
			phaseOf = append(phaseOf, pi)
		}
	}

	// Live scale-out: member adds ride scheduler events at the phase
	// boundaries, racing the arrival wave exactly as a real scale-out
	// would. Ordering within the boundary instant doesn't matter — the
	// members keep no per-account state, so a login whose round 1 ran on
	// one member finishes on whichever member the VIP picks next.
	for _, p := range plans {
		if p.adds == 0 {
			continue
		}
		adds := p.adds
		sys.Sched.At(p.start, func() {
			for a := 0; a < adds; a++ {
				if _, err := sys.AddUserMgrMember(); err != nil {
					panic(fmt.Sprintf("exp: scaleout AddUserMgrMember: %v", err))
				}
			}
		})
	}

	// Chaos knob: sever a viewer subset from the User Manager VIP across
	// the first scale-out — the name they dial, so the cut meets their
	// logins whichever member would serve them. The session loop has to
	// carry them across the heal.
	partitioned := 0
	if cfg.FaultPartition {
		partitioned = r.partition(rng, viewers, scalePartitionShare, core.AddrUserMgr, plans[1].start, scalePartitionFor)
	}

	// Observability: the growth timeline, plus shed-counter snapshots at
	// the same boundaries.
	bounds := make([]phaseBoundary, len(plans))
	for i, p := range plans {
		bounds[i] = phaseBoundary{Name: p.name, At: p.start}
	}
	r.observe(bounds)
	shedAt := make([]int64, len(plans))
	for i, p := range plans {
		i := i
		capture := func() { shedAt[i] = totalShed(sys) }
		if !p.start.After(sys.Sched.Now()) {
			capture()
		} else {
			sys.Sched.At(p.start, capture)
		}
	}

	var mu sync.Mutex
	loginLats := make([][]time.Duration, len(plans))
	phaseWatch := make([]int, len(plans))
	res := &ScaleOutResult{Viewers: viewers, MembersStart: scaleUserMgrFarm, Partitioned: partitioned}
	loggedIn := 0
	for i := 0; i < viewers; i++ {
		pi := phaseOf[i]
		c, err := r.viewer(fmt.Sprintf("v%05d@e", i), impatientClient)
		if err != nil {
			return nil, err
		}
		r.session(c, offsets[i], "live-event", sessionHooks{
			loggedIn: func(elapsed time.Duration) {
				mu.Lock()
				loggedIn++
				loginLats[pi] = append(loginLats[pi], elapsed)
				mu.Unlock()
			},
			watching: func(time.Duration) {
				mu.Lock()
				res.Watching++
				phaseWatch[pi]++
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
		})
	}
	res.Artifacts = r.finish()

	res.FailedLogins = viewers - loggedIn
	res.MembersEnd = len(sys.UserMgrBackends())
	for _, m := range sys.UserMgrs() {
		res.Login2 = append(res.Login2, m.Stats().Login2Served)
	}
	for _, cs := range res.Calls {
		res.Overloads += cs.Overloads
	}
	res.Shed = totalShed(sys)
	finalShed := append(shedAt[1:], res.Shed)
	total := 0
	for pi, p := range plans {
		lats := loginLats[pi]
		total += p.arrivals
		res.PhaseStats = append(res.PhaseStats, ScalePhase{
			Name:     p.name,
			Arrivals: p.arrivals,
			Total:    total,
			Members:  p.members,
			Watching: phaseWatch[pi],
			LoginP50: feedback.Median(lats),
			LoginP95: feedback.Quantile(lats, 0.95),
			Shed:     finalShed[pi] - shedAt[pi],
		})
	}
	return res, nil
}

// totalShed sums the shed counter across every endpoint in the
// deployment (only the login endpoints arm shedding, but the sum is
// deployment-wide so it needs no service-name knowledge).
func totalShed(sys *core.System) int64 {
	var total int64
	for _, m := range sys.EndpointTotals() {
		total += m.Shed
	}
	return total
}

// joinCounts renders counts as a/b/c.
func joinCounts(counts []int64) string {
	parts := make([]string, len(counts))
	for i, n := range counts {
		parts[i] = fmt.Sprint(n)
	}
	return strings.Join(parts, "/")
}

// RenderScaleOut prints the elastic-farm sweep: per-phase growth,
// latency flatness, and the farm and shed counters.
func RenderScaleOut(res *ScaleOutResult) string {
	var b strings.Builder
	b.WriteString("Elastic User Manager farm — flash crowd growing 10× while members join the VIP live\n")
	fmt.Fprintf(&b, "  viewers %d — watching %d, failed logins %d (all watching in %s)\n",
		res.Viewers, res.Watching, res.FailedLogins, fmtMS(res.AllWatchingIn))
	fmt.Fprintf(&b, "  farm: %d → %d members; LOGIN2s served per member, in join order: %s\n",
		res.MembersStart, res.MembersEnd, joinCounts(res.Login2))
	if res.Partitioned > 0 {
		fmt.Fprintf(&b, "  chaos: %d viewers partitioned from the User Manager VIP across the first scale-out\n",
			res.Partitioned)
	}
	fmt.Fprintf(&b, "  %-6s %9s %8s %8s %9s %12s %12s %8s\n",
		"phase", "arrivals", "total", "members", "watching", "login-p50", "login-p95", "shed")
	for _, ph := range res.PhaseStats {
		fmt.Fprintf(&b, "  %-6s %9d %8d %8d %9d %12s %12s %8d\n",
			ph.Name, ph.Arrivals, ph.Total, ph.Members, ph.Watching,
			fmtMS(ph.LoginP50), fmtMS(ph.LoginP95), ph.Shed)
	}
	fmt.Fprintf(&b, "  login p95 spread across phases: %.2fx (flat = 1.00x)\n", res.p95Spread())
	fmt.Fprintf(&b, "  shedding: %d refused at high water, %d absorbed by client retry\n",
		res.Shed, res.Overloads)
	fmt.Fprintf(&b, "  sessions: %d retries; network: %d messages sent, %d dropped\n",
		res.SessionRetries, res.Net.Sent, res.Net.Dropped)
	if len(res.Phases) > 0 {
		b.WriteString(renderPhases(res.Phases))
	}
	b.WriteString("(members join the VIP mid-wave and take new requests at once: they keep no\n")
	b.WriteString(" per-account state, so nothing moves, and the high-water mark sheds bursts\n")
	b.WriteString(" instead of queueing them)\n")
	return b.String()
}
