package cryptoutil_test

import (
	"fmt"
	"testing"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/wire"
)

// TestDeploymentChallengesAndJoinsHitMemo: in a lossless deployment every
// LOGIN2 and SWITCH2 signature check and every JOIN session-key Open is
// answered by the record its signer or sealer made in the shared memo.
func TestDeploymentChallengesAndJoinsHitMemo(t *testing.T) {
	start := time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)
	sys, err := core.NewSystem(core.Options{Seed: 1, Start: start, RootMaxChildren: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployChannel(core.FreeToView("news", "News 1", "100")); err != nil {
		t.Fatal(err)
	}
	var memo *cryptoutil.Memo
	var clients []*client.Client
	for i := 0; i < 6; i++ {
		email := fmt.Sprintf("v%d@example.com", i)
		if _, err := sys.RegisterUser(email, "pw"); err != nil {
			t.Fatal(err)
		}
		c, err := sys.NewClient(email, "pw", geo.Addr(100, 10, i+1), func(cfg *client.Config) {
			memo = cfg.Tickets.Crypto()
		})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		sys.Sched.Go(func() {
			if err := c.Login(); err != nil {
				t.Errorf("%s login: %v", email, err)
				return
			}
			if err := c.Watch("news"); err != nil {
				t.Errorf("%s watch: %v", email, err)
			}
		})
	}
	// Long enough for channel-ticket renewals and a User Ticket re-login.
	sys.Sched.RunUntil(start.Add(12 * time.Minute))
	sys.StopAll()

	var logins, switches, joins int64
	for _, m := range sys.UserMgrs {
		logins += m.Stats().Login2Served
	}
	for _, farm := range sys.ChanMgrs {
		for _, m := range farm {
			sw := m.Runtime().Snapshot()[wire.SvcSwitch2]
			switches += sw.Requests - sw.Errors
		}
	}
	for _, srv := range sys.Servers {
		joins += srv.Peer().Stats().JoinsAccepted
	}
	for _, c := range clients {
		joins += c.Peer().Stats().JoinsAccepted
	}
	t.Logf("%d LOGIN2, %d SWITCH2, %d JOIN; memo hits %d misses %d", logins, switches, joins, memo.Hits(), memo.Misses())
	st := clients[0].Stats()
	if st.Renewals == 0 || st.Logins < 2 {
		t.Fatalf("client 0: %d logins, %d renewals; the run must cover re-login and renewal", st.Logins, st.Renewals)
	}
	if joins <= int64(len(clients)) {
		t.Fatalf("%d joins accepted for %d viewers; want client parents too", joins, len(clients))
	}
	if memo.Misses() != 0 || memo.Hits() != logins+switches+joins {
		t.Fatalf("memo hits %d misses %d; want %d LOGIN2 + %d SWITCH2 + %d JOIN hits and no miss",
			memo.Hits(), memo.Misses(), logins, switches, joins)
	}
}
