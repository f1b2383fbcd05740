package core

import (
	"testing"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/feedback"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/simnet"
)

var t0 = time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)

type stack struct {
	sys *System
}

func newStack(t *testing.T, mut func(*Options)) *stack {
	t.Helper()
	opts := Options{Seed: 1}
	if mut != nil {
		mut(&opts)
	}
	sys, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	return &stack{sys: sys}
}

// deployDefault deploys two free channels (r100, r200) and one
// subscription channel in region 100.
func (st *stack) deployDefault(t *testing.T) {
	t.Helper()
	for _, ch := range []struct {
		id, name string
		deploy   func() error
	}{
		{"news", "News 1", func() error { return st.sys.DeployChannel(FreeToView("news", "News 1", "100")) }},
		{"sports", "Sports", func() error { return st.sys.DeployChannel(FreeToView("sports", "Sports", "100", "200")) }},
		{"premium", "Premium Movies", func() error {
			return st.sys.DeployChannel(SubscriptionChannel("premium", "Premium Movies", "gold", "100"))
		}},
	} {
		if err := ch.deploy(); err != nil {
			t.Fatalf("deploy %s: %v", ch.id, err)
		}
	}
}

// viewer registers the user and creates a client at addr.
func (st *stack) viewer(t *testing.T, email string, addr simnet.Addr, frames *int) *client.Client {
	t.Helper()
	if _, err := st.sys.RegisterUser(email, "pw-"+email); err != nil {
		t.Fatal(err)
	}
	c, err := st.sys.NewClient(email, "pw-"+email, addr, func(cfg *client.Config) {
		if frames != nil {
			cfg.OnFrame = func(uint64, []byte) { *frames++ }
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEndToEndLoginWatchPlayback(t *testing.T) {
	st := newStack(t, nil)
	st.deployDefault(t)
	frames := 0
	c := st.viewer(t, "alice@example.com", geo.Addr(100, 10, 1), &frames)
	var loginErr, watchErr error
	st.sys.Sched.Go(func() {
		loginErr = c.Login()
		if loginErr != nil {
			return
		}
		watchErr = c.Watch("news")
	})
	st.sys.Sched.RunUntil(t0.Add(2 * time.Minute))
	st.sys.StopAll()
	if loginErr != nil {
		t.Fatalf("login: %v", loginErr)
	}
	if watchErr != nil {
		t.Fatalf("watch: %v", watchErr)
	}
	if frames < 30 {
		t.Fatalf("frames = %d in ~2min at 1 fps, want ≥ 30", frames)
	}
	// All five rounds must appear in the feedback log.
	seen := map[feedback.Round]bool{}
	for _, s := range c.FeedbackLog().Samples() {
		if s.OK {
			seen[s.Round] = true
		}
	}
	for _, r := range feedback.Rounds {
		if !seen[r] {
			t.Fatalf("round %s missing from feedback log", r)
		}
	}
}

func TestAvailableChannelsFollowRegionAndSubscription(t *testing.T) {
	st := newStack(t, nil)
	st.deployDefault(t)
	_ = st.sys.Accounts.Subscribe("", "", time.Time{}, time.Time{}) // no-op guard
	cR100 := st.viewer(t, "r100@e", geo.Addr(100, 10, 1), nil)
	cR200 := st.viewer(t, "r200@e", geo.Addr(200, 10, 1), nil)
	_ = st.sys.Accounts.Subscribe("r100@e", "gold", t0, t0.Add(24*time.Hour))
	var avail100, avail200 []string
	st.sys.Sched.Go(func() {
		if err := cR100.Login(); err != nil {
			t.Errorf("login 100: %v", err)
			return
		}
		avail100 = cR100.AvailableChannels()
		if err := cR200.Login(); err != nil {
			t.Errorf("login 200: %v", err)
			return
		}
		avail200 = cR200.AvailableChannels()
	})
	st.sys.Sched.RunUntil(t0.Add(time.Minute))
	st.sys.StopAll()
	want100 := []string{"news", "premium", "sports"}
	if len(avail100) != 3 || avail100[0] != want100[0] || avail100[1] != want100[1] || avail100[2] != want100[2] {
		t.Fatalf("region-100 subscriber sees %v, want %v", avail100, want100)
	}
	if len(avail200) != 1 || avail200[0] != "sports" {
		t.Fatalf("region-200 user sees %v, want [sports]", avail200)
	}
}

func TestSubscriptionGateEnforcedEndToEnd(t *testing.T) {
	st := newStack(t, nil)
	st.deployDefault(t)
	c := st.viewer(t, "free@e", geo.Addr(100, 10, 1), nil)
	var watchErr error
	st.sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		watchErr = c.Watch("premium")
	})
	st.sys.Sched.RunUntil(t0.Add(time.Minute))
	st.sys.StopAll()
	if watchErr == nil {
		t.Fatal("non-subscriber watched a subscription channel")
	}
}

func TestChannelSwitchingTransparent(t *testing.T) {
	st := newStack(t, nil)
	st.deployDefault(t)
	frames := 0
	c := st.viewer(t, "zap@e", geo.Addr(100, 10, 1), &frames)
	var errs []error
	st.sys.Sched.Go(func() {
		errs = append(errs, c.Login())
		errs = append(errs, c.Watch("news"))
		st.sys.Sched.Sleep(30 * time.Second)
		errs = append(errs, c.Watch("sports"))
		st.sys.Sched.Sleep(30 * time.Second)
	})
	st.sys.Sched.RunUntil(t0.Add(2 * time.Minute))
	st.sys.StopAll()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if got := c.Watching(); got != "sports" {
		t.Fatalf("watching %q, want sports", got)
	}
	if c.Stats().Switches != 2 {
		t.Fatalf("switches = %d", c.Stats().Switches)
	}
}

func TestTicketRenewalKeepsPlaybackAlive(t *testing.T) {
	st := newStack(t, func(o *Options) {
		o.ChannelTicketLifetime = 2 * time.Minute
		o.RenewWindow = time.Minute
	})
	st.deployDefault(t)
	frames := 0
	c := st.viewer(t, "longwatch@e", geo.Addr(100, 10, 1), &frames)
	st.sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		if err := c.Watch("news"); err != nil {
			t.Errorf("watch: %v", err)
		}
	})
	// 7 minutes: the 2-minute channel ticket must renew ≥ 2 times.
	st.sys.Sched.RunUntil(t0.Add(7 * time.Minute))
	st.sys.StopAll()
	if got := c.Stats().Renewals; got < 2 {
		t.Fatalf("renewals = %d, want ≥ 2", got)
	}
	// Playback never paused: roughly one frame per second throughout.
	if frames < 6*60-30 {
		t.Fatalf("frames = %d over 7 minutes, playback was interrupted", frames)
	}
}

func TestP2PFanoutBeyondRootCapacity(t *testing.T) {
	// More viewers than the root accepts directly: later joiners must
	// peer through earlier clients (the P2P advantage, §I).
	st := newStack(t, func(o *Options) {
		o.RootMaxChildren = 2
	})
	st.deployDefault(t)
	const viewers = 8
	frameCounts := make([]int, viewers)
	clients := make([]*client.Client, viewers)
	for i := 0; i < viewers; i++ {
		i := i
		email := "v" + string(rune('a'+i)) + "@e"
		clients[i] = st.viewer(t, email, geo.Addr(100, 10, i+1), &frameCounts[i])
		st.sys.Sched.Go(func() {
			st.sys.Sched.Sleep(time.Duration(i) * 5 * time.Second)
			if err := clients[i].Login(); err != nil {
				t.Errorf("login %d: %v", i, err)
				return
			}
			if err := clients[i].Watch("news"); err != nil {
				t.Errorf("watch %d: %v", i, err)
			}
		})
	}
	st.sys.Sched.RunUntil(t0.Add(4 * time.Minute))
	st.sys.StopAll()
	rootChildren := st.sys.Servers["news"].Peer().Children()
	if rootChildren > 2 {
		t.Fatalf("root has %d children, capacity 2", rootChildren)
	}
	for i, n := range frameCounts {
		if n < 30 {
			t.Fatalf("viewer %d got %d frames — relaying through peers failed", i, n)
		}
	}
}

func TestBlackoutKicksViewersWithinTicketLifetime(t *testing.T) {
	st := newStack(t, func(o *Options) {
		o.UserTicketLifetime = 4 * time.Minute
		o.ChannelTicketLifetime = 2 * time.Minute
		o.RenewWindow = time.Minute
	})
	st.deployDefault(t)
	frames := 0
	var lastFrameAt time.Time
	c := st.viewer(t, "kicked@e", geo.Addr(100, 10, 1), nil)
	cfgd, err := st.sys.NewClient("kicked2", "x", geo.Addr(100, 10, 99), nil)
	_ = cfgd
	_ = err
	// Track frame arrival times through a wrapper client.
	c2, err := st.sys.NewClient("kicked@e", "pw-kicked@e", geo.Addr(100, 10, 2), func(cfg *client.Config) {
		cfg.OnFrame = func(uint64, []byte) {
			frames++
			lastFrameAt = st.sys.Sched.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = c
	// Blackout from minute 10 to minute 30, deployed at t0 (lead time of
	// 10 min > one user-ticket lifetime of 4 min — rule respected).
	boStart := t0.Add(10 * time.Minute)
	boEnd := t0.Add(30 * time.Minute)
	if err := st.sys.DeployBlackout("news", boStart, boEnd); err != nil {
		t.Fatal(err)
	}
	st.sys.Sched.Go(func() {
		if err := c2.Login(); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		if err := c2.Watch("news"); err != nil {
			t.Errorf("watch: %v", err)
		}
	})
	st.sys.Sched.RunUntil(t0.Add(20 * time.Minute))
	st.sys.StopAll()
	if frames == 0 {
		t.Fatal("no frames before blackout")
	}
	// The client's last ticket was issued before boStart, so its
	// authorization can extend at most one channel-ticket lifetime past
	// the blackout start.
	deadline := boStart.Add(st.sys.Opts.ChannelTicketLifetime + 30*time.Second)
	if lastFrameAt.After(deadline) {
		t.Fatalf("frames still flowing at %v, after deadline %v", lastFrameAt, deadline)
	}
	if c2.Stats().RenewalsFailed == 0 {
		t.Fatal("renewal should have been refused during the blackout")
	}
}

func TestSingleConcurrentUsePerAccountChannel(t *testing.T) {
	// The same account joins the same channel from two computers; the
	// first location's renewal is refused (§II Unique User Count, §IV-D).
	st := newStack(t, func(o *Options) {
		o.ChannelTicketLifetime = 2 * time.Minute
		o.RenewWindow = time.Minute
	})
	st.deployDefault(t)
	cA := st.viewer(t, "shared@e", geo.Addr(100, 10, 1), nil)
	cB, err := st.sys.NewClient("shared@e", "pw-shared@e", geo.Addr(100, 20, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	st.sys.Sched.Go(func() {
		if err := cA.Login(); err != nil {
			t.Errorf("loginA: %v", err)
			return
		}
		if err := cA.Watch("news"); err != nil {
			t.Errorf("watchA: %v", err)
			return
		}
		st.sys.Sched.Sleep(30 * time.Second)
		if err := cB.Login(); err != nil {
			t.Errorf("loginB: %v", err)
			return
		}
		if err := cB.Watch("news"); err != nil {
			t.Errorf("watchB: %v", err)
		}
	})
	st.sys.Sched.RunUntil(t0.Add(6 * time.Minute))
	st.sys.StopAll()
	if cA.Stats().RenewalsFailed == 0 {
		t.Fatal("location A's renewal should have been refused after B joined")
	}
	if cB.Stats().Renewals == 0 {
		t.Fatal("location B should renew normally")
	}
}

func TestLineupChangeTriggersChannelListRefetch(t *testing.T) {
	st := newStack(t, func(o *Options) {
		o.UserTicketLifetime = 2 * time.Minute
	})
	st.deployDefault(t)
	c := st.viewer(t, "fresh@e", geo.Addr(100, 10, 1), nil)
	var availBefore, availAfter []string
	st.sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		availBefore = c.AvailableChannels()
		st.sys.Sched.Sleep(time.Minute)
		// Lineup change: a new free channel appears in region 100.
		if err := st.sys.DeployChannel(FreeToView("extra", "Extra", "100")); err != nil {
			t.Errorf("deploy: %v", err)
			return
		}
		st.sys.Sched.Sleep(30 * time.Second)
		// The client renews its User Ticket; the fresher Region utime
		// must trigger a Channel List refetch (§IV-B).
		if err := c.RenewUserTicket(); err != nil {
			t.Errorf("renew: %v", err)
			return
		}
		availAfter = c.AvailableChannels()
	})
	st.sys.Sched.RunUntil(t0.Add(5 * time.Minute))
	st.sys.StopAll()
	if contains(availBefore, "extra") {
		t.Fatal("new channel visible before deployment")
	}
	if !contains(availAfter, "extra") {
		t.Fatalf("new channel missing after utime-triggered refetch: %v", availAfter)
	}
	if c.Stats().ListFetches < 2 {
		t.Fatalf("list fetches = %d, want ≥ 2", c.Stats().ListFetches)
	}
}

func TestPartitionedChannelManagersServeTheirChannels(t *testing.T) {
	st := newStack(t, nil)
	st.deployDefault(t) // round-robin: news→p1, sports→p2, premium→p1
	c := st.viewer(t, "parts@e", geo.Addr(100, 10, 1), nil)
	var e1, e2 error
	st.sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		e1 = c.Watch("news")
		e2 = c.Watch("sports")
	})
	st.sys.Sched.RunUntil(t0.Add(time.Minute))
	st.sys.StopAll()
	if e1 != nil || e2 != nil {
		t.Fatalf("watch across partitions: %v, %v", e1, e2)
	}
	// Each partition's managers saw only their channel's traffic.
	p1 := st.sys.ChanMgrs["p1"][0].Stats().TicketsIssued + st.sys.ChanMgrs["p1"][1].Stats().TicketsIssued
	p2 := st.sys.ChanMgrs["p2"][0].Stats().TicketsIssued + st.sys.ChanMgrs["p2"][1].Stats().TicketsIssued
	if p1 != 1 || p2 != 1 {
		t.Fatalf("tickets per partition = %d/%d, want 1/1", p1, p2)
	}
}

func TestWrongPasswordFailsLogin(t *testing.T) {
	st := newStack(t, nil)
	st.deployDefault(t)
	if _, err := st.sys.RegisterUser("secure@e", "correct"); err != nil {
		t.Fatal(err)
	}
	c, err := st.sys.NewClient("secure@e", "WRONG", geo.Addr(100, 10, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	var loginErr error
	st.sys.Sched.Go(func() { loginErr = c.Login() })
	st.sys.Sched.RunUntil(t0.Add(time.Minute))
	st.sys.StopAll()
	if loginErr == nil {
		t.Fatal("wrong password logged in")
	}
}

func TestRemoveChannelWithdrawsIt(t *testing.T) {
	st := newStack(t, nil)
	st.deployDefault(t)
	if err := st.sys.RemoveChannel("news"); err != nil {
		t.Fatal(err)
	}
	c := st.viewer(t, "late@e", geo.Addr(100, 10, 1), nil)
	var watchErr error
	st.sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		watchErr = c.Watch("news")
	})
	st.sys.Sched.RunUntil(t0.Add(time.Minute))
	st.sys.StopAll()
	if watchErr == nil {
		t.Fatal("removed channel still watchable")
	}
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
