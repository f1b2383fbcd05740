package core

import (
	"testing"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/geo"
)

// TestUserMgrScaleIn drains one member out of a three-member sharded
// User Manager farm between two waves of logins: the second wave's
// accounts hash onto the two survivors and every login still completes —
// the shrink half of §V's farm sizing, end to end through redirect, the
// shard check and the client's stale-map retry.
func TestUserMgrScaleIn(t *testing.T) {
	sys, err := NewSystem(Options{
		Seed:         61,
		UserMgrFarm:  3,
		UserMgrShard: ShardOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployChannel(FreeToView("news", "News", "100")); err != nil {
		t.Fatal(err)
	}
	const users = 12
	clients := make([]*client.Client, users)
	for i := range clients {
		email := string(rune('a'+i)) + "@e"
		if _, err := sys.RegisterUser(email, "pw"); err != nil {
			t.Fatal(err)
		}
		if clients[i], err = sys.NewClient(email, "pw", geo.Addr(100, 1, i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	okLogins := 0
	wave := func(cs []*client.Client) {
		for _, c := range cs {
			sys.Sched.Go(func() {
				if err := c.Login(); err == nil {
					okLogins++
				}
			})
		}
		sys.Sched.RunUntil(sys.Sched.Now().Add(time.Minute))
	}
	wave(clients[:users/2])

	gone := sys.UserMgrBackends()[0]
	if err := sys.RemoveUserMgrMember(gone); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveUserMgrMember(gone); err == nil {
		t.Fatal("removing a departed member twice succeeded")
	}
	served := sys.UserMgrs[0].Stats().Login2Served

	wave(clients[users/2:])
	sys.StopAll()

	if okLogins != users {
		t.Fatalf("%d of %d logins succeeded across the scale-in", okLogins, users)
	}
	if got := len(sys.UserMgrBackends()); got != 2 {
		t.Fatalf("%d backends after scale-in, want 2", got)
	}
	if after := sys.UserMgrs[0].Stats().Login2Served; after != served {
		t.Fatalf("departed member finished %d logins after leaving the ring", after-served)
	}
}
