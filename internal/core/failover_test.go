package core

import (
	"testing"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/geo"
)

// TestManagerBackendFailover kills one of the two User Manager backends:
// the health-checked VIP stops routing to it, so every login still
// completes against the survivor — logical-single-manager resilience
// (§V).
func TestManagerBackendFailover(t *testing.T) {
	sys, err := NewSystem(Options{Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployChannel(FreeToView("news", "News", "100")); err != nil {
		t.Fatal(err)
	}
	const users = 6
	clients := make([]*client.Client, users)
	for i := range clients {
		email := string(rune('a'+i)) + "@e"
		if _, err := sys.RegisterUser(email, "pw"); err != nil {
			t.Fatal(err)
		}
		clients[i], err = sys.NewClient(email, "pw", geo.Addr(100, 1, i+1), func(c *client.Config) {
			c.RPCTimeout = 2 * time.Second
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Kill backend um1 before any traffic: the VIP still round-robins to
	// it, so roughly half of all rounds need a retry.
	killNode(t, sys, "um1.provider")

	okLogins := 0
	for i := range clients {
		c := clients[i]
		sys.Sched.Go(func() {
			if err := c.Login(); err == nil {
				okLogins++
			}
		})
	}
	sys.Sched.RunUntil(sys.Sched.Now().Add(time.Minute))
	sys.StopAll()

	if okLogins != users {
		t.Fatalf("%d of %d logins succeeded with one backend down", okLogins, users)
	}
	// The survivor served every completed round.
	if sys.UserMgrs[1].Stats().Login2Served != users {
		t.Fatalf("surviving backend served %d login2, want %d",
			sys.UserMgrs[1].Stats().Login2Served, users)
	}
}

// TestRPCRetryCoversLossyLinks: a lost request or reply times out and is
// retried once, so moderate packet loss does not fail whole sessions.
func TestRPCRetryCoversLossyLinks(t *testing.T) {
	sys, err := NewSystem(Options{Seed: 53, PacketLoss: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployChannel(FreeToView("news", "News", "100")); err != nil {
		t.Fatal(err)
	}
	const users = 10
	clients := make([]*client.Client, users)
	for i := range clients {
		email := string(rune('a'+i)) + "@e"
		if _, err := sys.RegisterUser(email, "pw"); err != nil {
			t.Fatal(err)
		}
		clients[i], err = sys.NewClient(email, "pw", geo.Addr(100, 1, i+1), func(c *client.Config) {
			c.RPCTimeout = 2 * time.Second
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ok := 0
	for i := range clients {
		c := clients[i]
		sys.Sched.Go(func() {
			if err := c.Login(); err == nil {
				ok++
			}
		})
	}
	sys.Sched.RunUntil(sys.Sched.Now().Add(2 * time.Minute))
	sys.StopAll()
	if ok < users-1 {
		t.Fatalf("%d of %d logins succeeded at 5%% loss", ok, users)
	}
	retries := int64(0)
	for _, c := range clients {
		retries += c.Stats().Retries
	}
	if retries == 0 {
		t.Fatal("5% loss over 40 messages triggered no retries — retry path dead")
	}
}

// killNode marks a backend unreachable from now on.
func killNode(t *testing.T, sys *System, addr string) {
	t.Helper()
	for _, n := range sys.mgrNodes {
		if string(n.Addr()) == addr {
			sys.Net.ScheduleDown(n.Addr(), sys.Sched.Now(), 0)
			return
		}
	}
	t.Fatalf("backend %q not found", addr)
}

// TestRenewalPinnedToUserTicketDoesNotStorm is the regression test for
// the renewal busy-loop: when the Channel Ticket expiry gets capped at
// the User Ticket's expiry (§IV-C), the client must renew the User
// Ticket rather than hammering the Channel Manager with renewals that
// cannot extend anything.
func TestRenewalPinnedToUserTicketDoesNotStorm(t *testing.T) {
	sys, err := NewSystem(Options{
		Seed:                  52,
		UserTicketLifetime:    4 * time.Minute,
		ChannelTicketLifetime: 3 * time.Minute, // pins to user expiry quickly
		RenewWindow:           90 * time.Second,
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
	sys.Sched.RunUntil(sys.Sched.Now().Add(20 * time.Minute))
	sys.StopAll()

	// 20 minutes with 3-minute tickets: a healthy client performs ~6-8
	// renewals plus a handful of user-ticket refreshes. A storm would be
	// hundreds.
	st := c.Stats()
	if st.Renewals < 4 {
		t.Fatalf("renewals = %d — renewal loop died", st.Renewals)
	}
	if st.Renewals > 20 {
		t.Fatalf("renewals = %d — renewal storm", st.Renewals)
	}
	total := c.FeedbackLog().Len()
	if total > 120 {
		t.Fatalf("%d protocol rounds in 20 min — storm", total)
	}
}
