package client_test

import (
	"errors"
	"testing"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/geo"
)

var t0 = time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)

func newSystem(t *testing.T, mut func(*core.Options)) *core.System {
	t.Helper()
	opts := core.Options{Seed: 2}
	if mut != nil {
		mut(&opts)
	}
	sys, err := core.NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployChannel(core.FreeToView("news", "News", "100")); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestWatchBeforeLogin(t *testing.T) {
	sys := newSystem(t, nil)
	_, _ = sys.RegisterUser("a@e", "pw")
	c, err := sys.NewClient("a@e", "pw", geo.Addr(100, 1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	var werr error
	sys.Sched.Go(func() { werr = c.Watch("news") })
	sys.Sched.RunUntil(t0.Add(time.Minute))
	sys.StopAll()
	if !errors.Is(werr, client.ErrNotLoggedIn) {
		t.Fatalf("err = %v, want ErrNotLoggedIn", werr)
	}
}

func TestWatchUnknownChannel(t *testing.T) {
	sys := newSystem(t, nil)
	_, _ = sys.RegisterUser("a@e", "pw")
	c, _ := sys.NewClient("a@e", "pw", geo.Addr(100, 1, 1), nil)
	var werr error
	sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		werr = c.Watch("ghost")
	})
	sys.Sched.RunUntil(t0.Add(time.Minute))
	sys.StopAll()
	if !errors.Is(werr, client.ErrNoChannel) {
		t.Fatalf("err = %v, want ErrNoChannel", werr)
	}
}

func TestStopWatchingLeavesOverlay(t *testing.T) {
	sys := newSystem(t, nil)
	_, _ = sys.RegisterUser("a@e", "pw")
	c, _ := sys.NewClient("a@e", "pw", geo.Addr(100, 1, 1), nil)
	sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		if err := c.Watch("news"); err != nil {
			t.Errorf("watch: %v", err)
			return
		}
		sys.Sched.Sleep(10 * time.Second)
		c.StopWatching()
	})
	sys.Sched.RunUntil(t0.Add(2 * time.Minute))
	sys.StopAll()
	if c.Watching() != "" {
		t.Fatal("still watching after StopWatching")
	}
	if c.Peer() != nil {
		t.Fatal("overlay peer still present")
	}
	if got := sys.Servers["news"].Peer().Children(); got != 0 {
		t.Fatalf("root still has %d children after client left", got)
	}
}

func TestParentLossTriggersRejoin(t *testing.T) {
	// Relay A carries B; when A departs, B must re-join (through the
	// root, which now has a free slot).
	sys := newSystem(t, func(o *core.Options) { o.RootMaxChildren = 1 })
	_, _ = sys.RegisterUser("a@e", "pw")
	_, _ = sys.RegisterUser("b@e", "pw")
	framesB := 0
	cA, _ := sys.NewClient("a@e", "pw", geo.Addr(100, 1, 1), nil)
	cB, _ := sys.NewClient("b@e", "pw", geo.Addr(100, 1, 2), func(cfg *client.Config) {
		cfg.OnFrame = func(uint64, []byte) { framesB++ }
	})
	sys.Sched.Go(func() {
		if err := cA.Login(); err != nil {
			t.Errorf("loginA: %v", err)
			return
		}
		if err := cA.Watch("news"); err != nil {
			t.Errorf("watchA: %v", err)
			return
		}
		sys.Sched.Sleep(20 * time.Second)
		if err := cB.Login(); err != nil {
			t.Errorf("loginB: %v", err)
			return
		}
		if err := cB.Watch("news"); err != nil {
			t.Errorf("watchB: %v", err)
			return
		}
		sys.Sched.Sleep(60 * time.Second)
		cA.StopWatching() // A departs; B loses its parent
	})
	sys.Sched.RunUntil(t0.Add(5 * time.Minute))
	sys.StopAll()
	if got := cB.Stats().Rejoins; got == 0 {
		t.Fatal("B never re-joined after losing its parent")
	}
	// B kept receiving frames after the rejoin: ~1 fps for ~3.5 min
	// remaining; demand well over half.
	if framesB < 150 {
		t.Fatalf("B received only %d frames; playback did not recover", framesB)
	}
}

func TestDefaultChannelManagerPath(t *testing.T) {
	// A single-partition deployment: every channel resolves to the one
	// Channel Manager farm through its per-channel coordinates.
	sys := newSystem(t, func(o *core.Options) { o.Partitions = []string{"p1"} })
	_, _ = sys.RegisterUser("a@e", "pw")
	c, _ := sys.NewClient("a@e", "pw", geo.Addr(100, 1, 1), nil)
	var werr error
	sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		werr = c.Watch("news")
	})
	sys.Sched.RunUntil(t0.Add(time.Minute))
	sys.StopAll()
	if werr != nil {
		t.Fatalf("watch via the single partition's CM: %v", werr)
	}
}

func TestFeedbackLatenciesArePlausible(t *testing.T) {
	sys := newSystem(t, nil)
	_, _ = sys.RegisterUser("a@e", "pw")
	c, _ := sys.NewClient("a@e", "pw", geo.Addr(100, 1, 1), nil)
	sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		if err := c.Watch("news"); err != nil {
			t.Errorf("watch: %v", err)
		}
	})
	sys.Sched.RunUntil(t0.Add(time.Minute))
	sys.StopAll()
	for _, s := range c.FeedbackLog().Samples() {
		if !s.OK {
			t.Fatalf("round %s failed", s.Round)
		}
		// One RTT on a 15–80ms-per-hop network, plus queueing ≈ 0.
		if s.Latency <= 0 || s.Latency > time.Second {
			t.Fatalf("round %s latency %v implausible", s.Round, s.Latency)
		}
	}
}

func TestClientAccessorsAndUserTicketRenewal(t *testing.T) {
	sys := newSystem(t, nil)
	_, _ = sys.RegisterUser("acc@e", "pw")
	c, err := sys.NewClient("acc@e", "pw", geo.Addr(100, 3, 9), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Node() == nil || c.Node().Addr() != geo.Addr(100, 3, 9) {
		t.Fatal("address accessors broken")
	}
	if c.UserTicket() != nil || c.UserTicketBlob() != nil || c.ChannelTicketBlob() != nil {
		t.Fatal("pre-login state not empty")
	}
	var firstExpiry, secondExpiry time.Time
	sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		firstExpiry = c.UserTicket().Expiry
		if len(c.AvailableChannels()) != 1 {
			t.Errorf("available = %v", c.AvailableChannels())
		}
		if err := c.Watch("news"); err != nil {
			t.Errorf("watch: %v", err)
			return
		}
		if c.ChannelTicket() == nil || len(c.ChannelTicketBlob()) == 0 {
			t.Error("channel ticket accessors empty while watching")
		}
		sys.Sched.Sleep(time.Minute)
		if err := c.RenewUserTicket(); err != nil {
			t.Errorf("renew: %v", err)
			return
		}
		secondExpiry = c.UserTicket().Expiry
	})
	sys.Sched.RunUntil(t0.Add(3 * time.Minute))
	sys.StopAll()
	if !secondExpiry.After(firstExpiry) {
		t.Fatalf("user ticket renewal did not extend expiry: %v → %v", firstExpiry, secondExpiry)
	}
	if len(c.UserTicketBlob()) == 0 {
		t.Fatal("ticket blob accessor empty after login")
	}
}

func TestFetchChannelListBeforeLogin(t *testing.T) {
	sys := newSystem(t, nil)
	_, _ = sys.RegisterUser("x@e", "pw")
	c, _ := sys.NewClient("x@e", "pw", geo.Addr(100, 1, 5), nil)
	var err error
	sys.Sched.Go(func() { err = c.FetchChannelList(nil) })
	sys.Sched.RunUntil(t0.Add(time.Minute))
	sys.StopAll()
	if !errors.Is(err, client.ErrNotLoggedIn) {
		t.Fatalf("err = %v, want ErrNotLoggedIn", err)
	}
}
