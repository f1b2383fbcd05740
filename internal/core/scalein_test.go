package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/obs"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/usermgr"
)

// TestUserMgrScaleIn drains one member out of a three-member User Manager
// farm in the middle of a wave of logins, the shrink half of §V's farm
// sizing. The member leaves the VIP pool right after it serves its first
// LOGIN1, so that login's LOGIN2 lands on a survivor, which opens the
// farm-sealed round-2 token as well as the departed member would have.
// Every login completes, and the departed member serves no request sent
// after it left; a second wave, long after, never reaches it.
func TestUserMgrScaleIn(t *testing.T) {
	const seed = 61
	sys, err := NewSystem(Options{Seed: seed, UserMgrFarm: 3, Trace: obs.NewTrace(4096)})
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
		traced := func(cfg *client.Config) { cfg.TraceID = obs.TraceIDFor(seed, email) }
		if clients[i], err = sys.NewClient(email, "pw", geo.Addr(100, 1, i+1), traced); err != nil {
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
	}

	gone, departed := sys.UserMgrBackends()[0], sys.UserMgrs()[0]
	var removedAt time.Time
	var removeErr error
	sys.Sched.Go(func() {
		for departed.Stats().Login1Served == 0 {
			sys.Sched.Sleep(time.Millisecond)
		}
		removedAt, removeErr = sys.Sched.Now(), sys.RemoveUserMgrMember(gone)
	})
	wave(clients[:users/2])
	sys.Sched.RunUntil(sys.Sched.Now().Add(time.Minute))
	if removeErr != nil {
		t.Fatal(removeErr)
	}
	if err := sys.RemoveUserMgrMember(gone); err == nil {
		t.Fatal("removing a departed member twice succeeded")
	}
	settled := departed.Stats()

	wave(clients[users/2:])
	sys.Sched.RunUntil(sys.Sched.Now().Add(time.Minute))
	sys.StopAll()

	if okLogins != users {
		t.Fatalf("%d of %d logins succeeded across the scale-in", okLogins, users)
	}
	if got := len(sys.UserMgrBackends()); got != 2 {
		t.Fatalf("%d backends after scale-in, want 2", got)
	}
	if after := departed.Stats(); after != settled {
		t.Fatalf("departed member served more after the second wave: %+v, then %+v", settled, after)
	}

	// Per login (one trace each): the node that served each round, and
	// when each round's stage began, which is no later than its send.
	type login struct {
		served map[string]simnet.Addr
		sent   map[string]time.Time
	}
	logins := make(map[uint64]*login)
	of := func(trace uint64) *login {
		if logins[trace] == nil {
			logins[trace] = &login{served: map[string]simnet.Addr{}, sent: map[string]time.Time{}}
		}
		return logins[trace]
	}
	spans := sys.Opts.Trace.Spans()
	for _, sp := range spans {
		switch {
		case sp.Kind == obs.KindStage && strings.HasPrefix(sp.Name, "login"):
			of(sp.Trace).sent[sp.Name] = sp.Begin
		case sp.Kind == obs.KindServer && strings.HasPrefix(sp.Service, "drm.login"):
			of(sp.Trace).served[strings.TrimPrefix(sp.Service, "drm.")] = simnet.Addr(sp.Node)
		}
	}
	straddled := 0
	for _, l := range logins {
		if l.served["login1"] == gone && l.served["login2"] != "" && l.served["login2"] != gone {
			straddled++
		}
		for round, node := range l.served {
			if node == gone && l.sent[round].After(removedAt) {
				t.Errorf("%s served a %s sent at %v, after it left the pool at %v", gone, round, l.sent[round], removedAt)
			}
		}
	}
	if straddled == 0 {
		t.Fatalf("no login began on %s and finished on a survivor (%d traced logins)", gone, len(logins))
	}
}

// TestUserMgrMembershipNeedsOneDomain: live membership is the anonymous
// farm's; with Authentication Domains every farm has its own VIP, so
// both operations refuse rather than guess which one to change.
func TestUserMgrMembershipNeedsOneDomain(t *testing.T) {
	sys, err := NewSystem(Options{Seed: 62, Domains: []string{"eu", "us"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddUserMgrMember(); err == nil {
		t.Error("AddUserMgrMember succeeded with Domains set")
	}
	if err := sys.RemoveUserMgrMember(sys.UserMgrBackends()[0]); err == nil {
		t.Error("RemoveUserMgrMember succeeded with Domains set")
	}
	if got := len(sys.UserMgrBackends()); got != 4 {
		t.Errorf("%d backends after refused changes, want 4", got)
	}
}

// TestUserMgrMemberAddedLikeTheFarm grows a one-member farm and then
// shrinks it back to the added member: the added member is built as the
// initial farm is (its capacity model, login shedding and trace), serves
// logins through the VIP, and the last member cannot be removed.
func TestUserMgrMemberAddedLikeTheFarm(t *testing.T) {
	const seed = 63
	sys, err := NewSystem(Options{
		Seed: seed, UserMgrFarm: 1, LoginHighWater: 1, Trace: obs.NewTrace(1024),
		UserMgrCapacity: CapacityModel{Workers: 1, ServiceTime: func() time.Duration { return 200 * time.Millisecond }},
	})
	if err != nil {
		t.Fatal(err)
	}
	added, err := sys.AddUserMgrMember()
	if err != nil {
		t.Fatal(err)
	}
	if added != "um2.provider" {
		t.Fatalf("added member at %s, want um2.provider", added)
	}
	first := sys.UserMgrBackends()[0]
	if err := sys.RemoveUserMgrMember(first); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveUserMgrMember(added); err == nil {
		t.Fatal("removed the last member")
	}
	if err := sys.RemoveUserMgrMember("um9.provider"); err == nil {
		t.Fatal("removed a member that never joined")
	}

	// Two logins at once against the one member: while its one worker
	// holds the first LOGIN1, its high-water mark of one sheds the
	// second, which retries through.
	var errs [2]error
	for i := range errs {
		email := string(rune('a'+i)) + "@e"
		if _, err := sys.RegisterUser(email, "pw"); err != nil {
			t.Fatal(err)
		}
		c, err := sys.NewClient(email, "pw", geo.Addr(100, 1, i+1), func(cfg *client.Config) {
			cfg.TraceID = obs.TraceIDFor(seed, email)
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.Sched.Go(func() { errs[i] = c.Login() })
	}
	sys.Sched.RunUntil(sys.Sched.Now().Add(time.Minute))
	for i, err := range errs {
		if err != nil {
			t.Fatalf("login %d: %v", i, err)
		}
	}
	if got := sys.UserMgrs()[1].Stats().Login2Served; got != 2 {
		t.Errorf("added member served %d LOGIN2s, want 2", got)
	}
	served := 0
	for _, sp := range sys.Opts.Trace.Spans() {
		if sp.Kind == obs.KindServer && sp.Node == string(added) {
			served++
		}
	}
	if served == 0 {
		t.Error("added member emitted no server span: its trace is not armed")
	}
	if shed := sys.UserMgrs()[1].Runtime().Snapshot()["drm.login1"].Shed; shed == 0 {
		t.Error("added member shed no LOGIN1 at a high-water mark of one")
	}
}

// TestAddUserMgrMemberBuildErrorLeavesNoNode: a member whose build fails
// leaves neither a node nor a pool entry behind, and the next add takes
// the same address (a leftover node would make it panic).
func TestAddUserMgrMemberBuildErrorLeavesNoNode(t *testing.T) {
	sys, err := NewSystem(Options{Seed: 64})
	if err != nil {
		t.Fatal(err)
	}
	um, boom := sys.umFarms[0], errors.New("boom")
	build := um.build
	um.build = func(*simnet.Node) (*usermgr.Manager, error) { return nil, boom }
	if _, err := sys.AddUserMgrMember(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got := len(sys.UserMgrBackends()); got != 2 || len(sys.UserMgrs()) != 2 {
		t.Fatalf("failed add left %d backends and %d managers, want 2 and 2", got, len(sys.UserMgrs()))
	}
	um.build = build
	if addr, err := sys.AddUserMgrMember(); err != nil || addr != "um3.provider" {
		t.Fatalf("retried add = %s, %v; want um3.provider", addr, err)
	}
}
