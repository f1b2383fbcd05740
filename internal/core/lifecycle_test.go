package core

import (
	"testing"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/simnet"
)

// TestMinimumClientVersionEnforced exercises §IV-F1's version gate: "the
// client's version number is used to enforce minimum version
// requirement of client application, for example when a new DRM
// architecture or protocol is deployed."
func TestMinimumClientVersionEnforced(t *testing.T) {
	sys, err := NewSystem(Options{Seed: 41, MinVersion: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployChannel(FreeToView("news", "News", "100")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterUser("a@e", "pw"); err != nil {
		t.Fatal(err)
	}
	older, _ := sys.NewClient("a@e", "pw", geo.Addr(100, 1, 1), func(c *client.Config) {
		c.Version = 4
	})
	current, _ := sys.NewClient("a@e", "pw", geo.Addr(100, 1, 2), func(c *client.Config) {
		c.Version = 5
	})
	var oldErr, curErr error
	sys.Sched.Go(func() {
		oldErr = older.Login()
		curErr = current.Login()
	})
	sys.Sched.RunUntil(sys.Sched.Now().Add(time.Minute))
	sys.StopAll()
	if oldErr == nil {
		t.Fatal("outdated client logged in")
	}
	if curErr != nil {
		t.Fatalf("current client refused: %v", curErr)
	}
}

// TestAccountDisabledMidSession: the account is disabled while watching
// (e.g. payment dispute). The current tickets keep working until they
// lapse — the §IV-C lead-time property — and then renewal fails because
// re-login fails, cutting the viewer off within one ticket lifetime.
func TestAccountDisabledMidSession(t *testing.T) {
	sys, err := NewSystem(Options{
		Seed:                  42,
		UserTicketLifetime:    3 * time.Minute,
		ChannelTicketLifetime: 2 * time.Minute,
		RenewWindow:           time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployChannel(FreeToView("news", "News", "100")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterUser("a@e", "pw"); err != nil {
		t.Fatal(err)
	}
	frames := 0
	var lastFrame time.Time
	c, _ := sys.NewClient("a@e", "pw", geo.Addr(100, 1, 1), func(cc *client.Config) {
		cc.OnFrame = func(uint64, []byte) {
			frames++
			lastFrame = sys.Sched.Now()
		}
	})
	start := sys.Sched.Now()
	var disabledAt time.Time
	sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		if err := c.Watch("news"); err != nil {
			t.Errorf("watch: %v", err)
			return
		}
		sys.Sched.Sleep(time.Minute)
		disabledAt = sys.Sched.Now()
		if err := sys.Accounts.SetDisabled("a@e", true); err != nil {
			t.Errorf("disable: %v", err)
		}
	})
	sys.Sched.RunUntil(start.Add(15 * time.Minute))
	sys.StopAll()
	if frames == 0 {
		t.Fatal("no frames before disable")
	}
	// The viewer must be cut within user-ticket + channel-ticket
	// lifetimes of the disable.
	deadline := disabledAt.Add(3*time.Minute + 2*time.Minute + time.Minute)
	if lastFrame.After(deadline) {
		t.Fatalf("frames still flowing at %v, deadline %v", lastFrame, deadline)
	}
	if lastFrame.Before(disabledAt) {
		t.Fatal("viewer cut instantly — tickets should carry until expiry")
	}
}

// TestPacketLossDegradesGracefully: with a lossy network the protocols
// still complete (retries by re-switch are not modeled; the RPC rounds
// themselves either complete or time out) and playback continues at a
// reduced rate rather than collapsing.
func TestPacketLossDegradesGracefully(t *testing.T) {
	sys, err := NewSystem(Options{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	sys.Net.Inject(simnet.Fault{Kind: simnet.Loss, P: 0.02})
	if err := sys.DeployChannel(FreeToView("news", "News", "100")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterUser("a@e", "pw"); err != nil {
		t.Fatal(err)
	}
	frames := 0
	c, _ := sys.NewClient("a@e", "pw", geo.Addr(100, 1, 1), func(cc *client.Config) {
		cc.OnFrame = func(uint64, []byte) { frames++ }
	})
	var lerr, werr error
	sys.Sched.Go(func() {
		lerr = c.Login()
		if lerr == nil {
			werr = c.Watch("news")
		}
	})
	sys.Sched.RunUntil(sys.Sched.Now().Add(3 * time.Minute))
	sys.StopAll()
	if lerr != nil || werr != nil {
		t.Fatalf("2%% loss broke the protocols: %v %v", lerr, werr)
	}
	// ~180 frames produced; with 2% loss and no retransmit, expect most.
	if frames < 120 {
		t.Fatalf("frames = %d under 2%% loss, want graceful degradation", frames)
	}
}
