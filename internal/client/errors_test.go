// Package client_test pins the client's error surfacing from outside:
// every protocol path goes through the same svc.Policy, so a dead
// destination yields the same typed error everywhere — errors.Is finds
// the transport timeout and errors.As finds the retry-exhaustion record.
// (Historically only Login special-cased simnet.ErrRPCTimeout while
// other call sites surfaced whatever the raw transport returned.)
package client_test

import (
	"errors"
	"testing"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
)

// newFaultySystem builds a system plus one client whose breaker is
// disabled, so the tests observe pure retry-exhaustion wrapping rather
// than a breaker fast-reject racing it.
func newFaultySystem(t *testing.T) (*core.System, *client.Client) {
	t.Helper()
	sys, err := core.NewSystem(core.Options{Seed: 81, Partitions: []string{"live"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployChannel(core.FreeToView("news", "News", "100")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterUser("a@e", "pw"); err != nil {
		t.Fatal(err)
	}
	c, err := sys.NewClient("a@e", "pw", geo.Addr(100, 1, 1), func(c *client.Config) {
		c.RPCTimeout = 2 * time.Second
		c.RPCAttempts = 2
		c.BreakerThreshold = -1
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, c
}

// killAll marks every given backend down.
func killAll(t *testing.T, sys *core.System, addrs []simnet.Addr) {
	t.Helper()
	for _, a := range addrs {
		if _, ok := sys.Net.Node(a); !ok {
			t.Fatalf("backend %s not found", a)
		}
		sys.Net.ScheduleDown(a, sys.Sched.Now(), 0)
	}
}

// wantUniformError asserts the two properties every dead-destination
// error must have, on every path.
func wantUniformError(t *testing.T, path string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: no error from a dead destination", path)
	}
	if !errors.Is(err, simnet.ErrRPCTimeout) {
		t.Errorf("%s: errors.Is(err, ErrRPCTimeout) = false: %v", path, err)
	}
	var ex *svc.ExhaustedError
	if !errors.As(err, &ex) {
		t.Errorf("%s: errors.As(err, *svc.ExhaustedError) = false: %v", path, err)
	} else if ex.Attempts != 2 {
		t.Errorf("%s: exhausted after %d attempts, want 2", path, ex.Attempts)
	}
}

func TestLoginSurfacesExhaustedTimeout(t *testing.T) {
	sys, c := newFaultySystem(t)
	killAll(t, sys, sys.UserMgrBackends())
	var err error
	sys.Sched.Go(func() { err = c.Login() })
	sys.Sched.RunUntil(sys.Sched.Now().Add(5 * time.Minute))
	wantUniformError(t, "Login", err)
	// The transport retried within each protocol pass and the protocol
	// layer restarted once from round 1 — both visible in the stats.
	st := c.Stats()
	if st.Restarts != 1 {
		t.Errorf("protocol restarts = %d, want 1", st.Restarts)
	}
	if st.Retries == 0 {
		t.Error("no transport retries recorded")
	}
}

func TestFetchChannelListSurfacesExhaustedTimeout(t *testing.T) {
	sys, c := newFaultySystem(t)
	var err error
	sys.Sched.Go(func() {
		if lerr := c.Login(); lerr != nil {
			t.Errorf("login: %v", lerr)
			return
		}
		killAll(t, sys, []simnet.Addr{"pm.provider"}) // the Channel Policy Manager's well-known address
		err = c.FetchChannelList(nil)
	})
	sys.Sched.RunUntil(sys.Sched.Now().Add(5 * time.Minute))
	wantUniformError(t, "FetchChannelList", err)
}

func TestWatchSurfacesExhaustedTimeout(t *testing.T) {
	sys, c := newFaultySystem(t)
	var err error
	sys.Sched.Go(func() {
		if lerr := c.Login(); lerr != nil {
			t.Errorf("login: %v", lerr)
			return
		}
		killAll(t, sys, sys.ChannelMgrBackends())
		err = c.Watch("news")
	})
	sys.Sched.RunUntil(sys.Sched.Now().Add(5 * time.Minute))
	wantUniformError(t, "Watch", err)
}
