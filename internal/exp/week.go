// Package exp contains the evaluation harness: each experiment rebuilds
// one table or figure of the paper's §VI (plus the baseline and ablation
// studies indexed in DESIGN.md) on top of the simulated deployment.
package exp

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/feedback"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/obs"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/workload"
)

// WeekConfig scales the Fig. 5 / Fig. 6 reproduction: a multi-day trace
// of diurnal login/switch/join traffic against the paper's deployment
// shape (two User Managers, four Channel Managers over two partitions).
type WeekConfig struct {
	Seed int64
	// Days of simulated time (paper: 7, June 23–29 2008).
	Days int
	// Channels deployed (paper: >200; scaled down by default to 24).
	Channels int
	// Users in the account pool.
	Users int
	// PeakSessionsPerHour is the session arrival rate at the diurnal
	// peak. With 45-minute sessions, concurrency ≈ 0.75×rate.
	PeakSessionsPerHour float64
	// MeanSession / MeanZap parameterize viewing behaviour.
	MeanSession time.Duration
	MeanZap     time.Duration
	// MetricsEvery is the system-metrics sampling period (endpoint and
	// network counters into WeekResult.Series). Default 1h — the same
	// granularity as the paper's per-hour tables.
	MetricsEvery time.Duration
	// TraceEvery arms causal tracing on a deterministic head-sampled
	// cohort: a session is traced when obs.Sampled(Seed, key, TraceEvery)
	// holds for its session key (email#arrival). 1 traces every session,
	// 0 disables tracing entirely — no ring is allocated and the run is
	// byte-identical to an untraced one. Sampling is a pure hash of the
	// seed and key (no RNG draws), so arming it moves no golden.
	TraceEvery int
}

const (
	// The §VI deployment shape: two User Managers, and two Channel
	// Managers on each of the two partitions (four in total).
	weekUserMgrFarm    = 2
	weekChannelMgrFarm = 2
	// Capacity of each manager backend.
	weekUMWorkers   = 4
	weekUMServiceMS = 3
	weekCMWorkers   = 4
	weekCMServiceMS = 2
	// weekSampleEvery is the concurrent-user sampling period.
	weekSampleEvery = 5 * time.Minute
	// weekTraceCap bounds the span ring. Overflow evicts the oldest
	// spans; exports report the dropped count.
	weekTraceCap = 1 << 16
)

func (c *WeekConfig) fill() {
	if c.Days <= 0 {
		c.Days = 7
	}
	if c.Channels <= 0 {
		c.Channels = 24
	}
	if c.Users <= 0 {
		c.Users = 1200
	}
	if c.PeakSessionsPerHour <= 0 {
		c.PeakSessionsPerHour = 400
	}
	if c.MeanSession <= 0 {
		c.MeanSession = 45 * time.Minute
	}
	if c.MeanZap <= 0 {
		c.MeanZap = 15 * time.Minute
	}
	if c.MetricsEvery <= 0 {
		c.MetricsEvery = time.Hour
	}
}

// WeekResult carries the corpus and trace parameters for rendering.
type WeekResult struct {
	Corpus         *feedback.Corpus
	Start          time.Time
	Hours          int
	PeakConcurrent int
	Sessions       int
	LoginFailures  int

	// Artifacts: Calls are the client-measured distributions behind the
	// Fig. 5 medians, Series is the MetricsEvery-interval system time
	// series, Trace is the traced session cohort's span ring (nil unless
	// WeekConfig.TraceEvery > 0). The week has no phase timeline.
	Artifacts
}

// RunWeek simulates the measurement week and returns the feedback
// corpus. Content production is off: Fig. 5/6 measure only the five
// protocol rounds (keys, joins and renewals still flow for real).
func RunWeek(cfg WeekConfig) (*WeekResult, error) {
	cfg.fill()
	traceCap := 0
	if cfg.TraceEvery > 0 {
		traceCap = weekTraceCap
	}
	// One service-time stream, drawn by both farms in request order.
	svcSrc := rand.NewSource(cfg.Seed + 7)
	r, err := newRun(cfg.Seed, traceCap, core.Options{
		UserMgrFarm:    weekUserMgrFarm,
		Partitions:     []string{"p1", "p2"},
		ChannelMgrFarm: weekChannelMgrFarm,
		UserMgrCapacity: core.CapacityModel{
			Workers: weekUMWorkers, ServiceTime: expService(svcSrc, weekUMServiceMS),
		},
		ChannelMgrCapacity: core.CapacityModel{
			Workers: weekCMWorkers, ServiceTime: expService(svcSrc, weekCMServiceMS),
		},
		PacketInterval: contentOff,
		RekeyInterval:  time.Minute,
		RootRegion:     100, // broadcasters' servers live in the served region
	}, time.Duration(cfg.Days)*24*time.Hour, 0)
	if err != nil {
		return nil, err
	}
	sys, end := r.sys, r.deadline

	channelIDs := make([]string, cfg.Channels)
	for i := range channelIDs {
		id := fmt.Sprintf("ch%03d", i)
		channelIDs[i] = id
		if err := sys.DeployChannel(core.FreeToView(id, "Channel "+id, "100")); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Users; i++ {
		email := fmt.Sprintf("user%05d@example.com", i)
		if _, err := sys.RegisterUser(email, "pw"); err != nil {
			return nil, err
		}
	}

	res := &WeekResult{
		Corpus: feedback.NewCorpus(),
		Start:  r.start,
		Hours:  cfg.Days * 24,
	}
	var mu sync.Mutex
	active := 0

	// System metrics, with the cross-session call totals and the
	// concurrent-user count beside the endpoint and network counters.
	r.sample(cfg.MetricsEvery, r.calls.Source(), func(add func(string, float64)) {
		mu.Lock()
		add("users.active", float64(active))
		mu.Unlock()
	})

	wlRng := rand.New(rand.NewSource(cfg.Seed + 13))
	arrivals := workload.NewArrivals(wlRng, workload.DiurnalProfile(), cfg.PeakSessionsPerHour, r.start)
	zipf := workload.NewZipf(wlRng, 1.3, cfg.Channels)
	sessions := workload.NewSessions(wlRng, cfg.MeanSession, cfg.MeanZap)

	// Concurrent-user sampler (the "Total # of Concurrent Users" series).
	sys.Sched.Go(func() {
		for sys.Sched.Now().Before(end) {
			sys.Sched.Sleep(weekSampleEvery)
			mu.Lock()
			n := active
			if n > res.PeakConcurrent {
				res.PeakConcurrent = n
			}
			res.Corpus.RecordUsers(sys.Sched.Now(), n)
			mu.Unlock()
		}
	})

	// A session's client lives for one arrival only: it is folded into
	// the call totals and its node removed when it departs, so the week
	// retains no per-session state (unlike r.viewer's roster).
	runSession := func(email string, addr simnet.Addr, traceKey string) {
		c, err := sys.NewClient(email, "pw", addr, func(cc *client.Config) {
			cc.Parents = 2
			if r.trace != nil && obs.Sampled(cfg.Seed, traceKey, cfg.TraceEvery) {
				cc.TraceID = obs.TraceIDFor(cfg.Seed, traceKey)
			} else {
				// Head sampling: sessions outside the cohort stay dark
				// (no flat call spans crowding the ring).
				cc.Trace = nil
			}
		})
		if err != nil {
			return
		}
		r.calls.Track(c)
		defer func() {
			c.StopWatching()
			res.Corpus.Submit(c.FeedbackLog())
			r.calls.Finish(c)
			sys.Net.RemoveNode(addr)
		}()
		if err := c.Login(); err != nil {
			mu.Lock()
			res.LoginFailures++
			mu.Unlock()
			return
		}
		mu.Lock()
		active++
		res.Sessions++
		mu.Unlock()
		defer func() {
			mu.Lock()
			active--
			mu.Unlock()
		}()

		remaining := sessions.Duration()
		for remaining > 0 {
			pick := channelIDs[zipf.Pick()]
			_ = c.Watch(pick) // rejections (rare) just mean another zap
			gap := sessions.ZapGap()
			if gap > remaining {
				gap = remaining
			}
			sys.Sched.Sleep(gap)
			remaining -= gap
			if !sys.Sched.Now().Before(end) {
				return
			}
		}
	}

	// Arrival driver: host numbers the arrivals.
	sys.Sched.Go(func() {
		for host := 1; sys.Sched.Now().Before(end); host++ {
			sys.Sched.Sleep(arrivals.Next(sys.Sched.Now()))
			if !sys.Sched.Now().Before(end) {
				return
			}
			email := fmt.Sprintf("user%05d@example.com", wlRng.Intn(cfg.Users))
			addr := geo.Addr(100, 1+host%40, 1000+host)
			// The session key folds in the arrival sequence so repeat
			// sessions by one account get distinct trace identities.
			traceKey := fmt.Sprintf("%s#%d", email, host)
			sys.Sched.Go(func() { runSession(email, addr, traceKey) })
		}
	})

	res.Artifacts = r.finish()
	return res, nil
}

// fig6Split returns peak (18–24h) and off-peak (0–18h) latency samples
// for one round.
func (r *WeekResult) fig6Split(round feedback.Round) (peak, off []time.Duration) {
	peak = r.Corpus.Latencies(round, r.Start, 18, 24)
	off = r.Corpus.Latencies(round, r.Start, 0, 18)
	return peak, off
}

// correlations computes the paper's Pearson r per round (§VI: −0.03…0.08
// for login/switch, 0.13 for join).
func (r *WeekResult) correlations() map[feedback.Round]float64 {
	out := make(map[feedback.Round]float64, len(feedback.Rounds))
	for _, rd := range feedback.Rounds {
		out[rd] = feedback.PearsonHourly(r.Corpus.Hourly(rd, r.Start, r.Hours))
	}
	return out
}
