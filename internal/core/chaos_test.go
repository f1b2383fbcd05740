package core

import (
	"testing"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/simnet"
)

// TestChaosManagerCrashMidFlashCrowd is the chaos suite: a small flash
// crowd arrives while whole manager farms crash and later restart. Every
// client must still reach playback within bounded simulated time — the
// transport retries, circuit breakers, and protocol/session restarts
// together must absorb the outage, whichever tier it hits.
func TestChaosManagerCrashMidFlashCrowd(t *testing.T) {
	cases := []struct {
		name    string
		crashUM bool
		crashCM bool
	}{
		{"user-manager-farm", true, false},
		{"channel-manager-farm", false, true},
		{"both-farms", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewSystem(Options{Seed: 71, Partitions: []string{"live"}})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.DeployChannel(FreeToView("news", "News", "100")); err != nil {
				t.Fatal(err)
			}
			start := sys.Sched.Now()

			// The whole farm goes down mid-crowd and restarts 10s later.
			// A single-backend kill is invisible at this layer (the VIP
			// health-checks route around it — see failover_test.go); a
			// full-farm outage is what exercises breakers and restarts.
			var down []simnet.Addr
			if tc.crashUM {
				down = append(down, sys.UserMgrBackends()...)
			}
			if tc.crashCM {
				down = append(down, sys.ChannelMgrBackends()...)
			}
			sys.Net.Inject(simnet.Fault{Kind: simnet.Down, At: start.Add(5 * time.Second), For: 10 * time.Second, A: down})

			const users = 10
			watching := 0
			deadline := start.Add(90 * time.Second)
			clients := make([]*client.Client, users)
			for i := 0; i < users; i++ {
				email := string(rune('a'+i)) + "@e"
				if _, err := sys.RegisterUser(email, "pw"); err != nil {
					t.Fatal(err)
				}
				c, err := sys.NewClient(email, "pw", geo.Addr(100, 1, i+1), func(c *client.Config) {
					c.RPCTimeout = 2 * time.Second
					c.RPCAttempts = 3
					c.BreakerThreshold = 3
					c.BreakerCooldown = 3 * time.Second
				})
				if err != nil {
					t.Fatal(err)
				}
				clients[i] = c
				offset := time.Duration(i) * time.Second // arrivals straddle the crash
				sys.Sched.GoArg(func(arg any) {
					c := arg.(*client.Client)
					sys.Sched.Sleep(offset)
					backoff := 2 * time.Second
					for {
						err := c.Login()
						if err == nil {
							err = c.Watch("news")
						}
						if err == nil {
							watching++
							return
						}
						if !sys.Sched.Now().Before(deadline) {
							t.Errorf("client %s gave up at %v: %v",
								c.Node().Addr(), sys.Sched.Now().Sub(start), err)
							return
						}
						sys.Sched.Sleep(backoff)
						if backoff *= 2; backoff > 10*time.Second {
							backoff = 10 * time.Second
						}
					}
				}, c)
			}
			sys.Sched.RunUntil(deadline.Add(10 * time.Second))
			sys.StopAll()

			if watching != users {
				t.Fatalf("%d of %d clients watching after farm crash+restart", watching, users)
			}
			var retries, restarts, opens int64
			for _, c := range clients {
				st := c.Stats()
				retries += st.Retries
				restarts += st.Restarts
				opens += st.BreakerOpens
			}
			// The crowd straddles a full-farm outage: some recovery
			// machinery must actually have fired.
			if retries == 0 && restarts == 0 {
				t.Fatalf("farm crash triggered no retries and no protocol restarts — faults not injected?")
			}
			t.Logf("%s: retries=%d restarts=%d breakerOpens=%d", tc.name, retries, restarts, opens)
		})
	}
}

// TestChaosSingleBackendPermanentKill: one backend of each farm dies and
// never comes back. The VIP health checks route around it, so the crowd
// must succeed without any client-visible recovery at all beyond plain
// RPC retries.
func TestChaosSingleBackendPermanentKill(t *testing.T) {
	sys, err := NewSystem(Options{Seed: 72, Partitions: []string{"live"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployChannel(FreeToView("news", "News", "100")); err != nil {
		t.Fatal(err)
	}
	start := sys.Sched.Now()
	sys.Net.Inject(simnet.Fault{Kind: simnet.Down, At: start.Add(2 * time.Second),
		A: []simnet.Addr{sys.UserMgrBackends()[0], sys.ChannelMgrBackends()[0]}})

	const users = 8
	watching := 0
	for i := 0; i < users; i++ {
		email := string(rune('a'+i)) + "@e"
		if _, err := sys.RegisterUser(email, "pw"); err != nil {
			t.Fatal(err)
		}
		c, err := sys.NewClient(email, "pw", geo.Addr(100, 2, i+1), func(c *client.Config) {
			c.RPCTimeout = 2 * time.Second
		})
		if err != nil {
			t.Fatal(err)
		}
		offset := time.Duration(i) * time.Second
		sys.Sched.GoArg(func(arg any) {
			c := arg.(*client.Client)
			sys.Sched.Sleep(offset)
			if err := c.Login(); err != nil {
				t.Errorf("client %s login: %v", c.Node().Addr(), err)
				return
			}
			if err := c.Watch("news"); err != nil {
				t.Errorf("client %s watch: %v", c.Node().Addr(), err)
				return
			}
			watching++
		}, c)
	}
	sys.Sched.RunUntil(start.Add(2 * time.Minute))
	sys.StopAll()
	if watching != users {
		t.Fatalf("%d of %d clients watching with one backend of each farm dead", watching, users)
	}
	// The survivors did all the work.
	if sys.UserMgrs[1].Stats().Login2Served != users {
		t.Fatalf("surviving UM served %d login2, want %d", sys.UserMgrs[1].Stats().Login2Served, users)
	}
}

// TestChaosPartitionedClientsRecover: clients behind a transient
// partition from the Channel Manager VIP cannot finish channel switching
// until the partition heals, then all succeed.
func TestChaosPartitionedClientsRecover(t *testing.T) {
	sys, err := NewSystem(Options{Seed: 73, Partitions: []string{"live"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployChannel(FreeToView("news", "News", "100")); err != nil {
		t.Fatal(err)
	}
	start := sys.Sched.Now()
	addrs := make([]simnet.Addr, 6)
	for i := range addrs {
		addrs[i] = geo.Addr(100, 3, i+1)
	}
	sys.Net.Inject(simnet.Fault{Kind: simnet.Partition, At: start.Add(time.Second), For: 15 * time.Second,
		A: addrs, B: []simnet.Addr{AddrChannelMgr("live")}})

	watching := 0
	deadline := start.Add(90 * time.Second)
	for i := range addrs {
		email := string(rune('a'+i)) + "@e"
		if _, err := sys.RegisterUser(email, "pw"); err != nil {
			t.Fatal(err)
		}
		c, err := sys.NewClient(email, "pw", addrs[i], func(c *client.Config) {
			c.RPCTimeout = 2 * time.Second
			c.RPCAttempts = 3
			c.BreakerThreshold = 3
			c.BreakerCooldown = 3 * time.Second
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.Sched.GoArg(func(arg any) {
			c := arg.(*client.Client)
			sys.Sched.Sleep(2 * time.Second) // arrive inside the partition
			for {
				err := c.Login()
				if err == nil {
					err = c.Watch("news")
				}
				if err == nil {
					watching++
					return
				}
				if !sys.Sched.Now().Before(deadline) {
					t.Errorf("client %s gave up: %v", c.Node().Addr(), err)
					return
				}
				sys.Sched.Sleep(3 * time.Second)
			}
		}, c)
	}
	sys.Sched.RunUntil(deadline.Add(10 * time.Second))
	sys.StopAll()
	if watching != len(addrs) {
		t.Fatalf("%d of %d partitioned clients watching after heal", watching, len(addrs))
	}
}
