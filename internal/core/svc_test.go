package core

import (
	"testing"
	"time"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/trad"
	"p2pdrm/internal/wire"
)

// TestServiceRegistrationComplete pins the deployment's service map:
// every service name in the wire taxonomy is registered on exactly the
// nodes that own it — no orphan service, no endpoint on the wrong tier.
func TestServiceRegistrationComplete(t *testing.T) {
	sys, err := NewSystem(Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployChannel(FreeToView("news", "News", "100")); err != nil {
		t.Fatal(err)
	}
	defer sys.StopAll()

	// The traditional-DRM baseline lives outside core.System; instantiate
	// it here so the taxonomy check covers SvcLicense too.
	licSrv, err := trad.New(sys.Net.NewNode("license.provider"), trad.Config{RNG: cryptoutil.NewSeededReader(1)})
	if err != nil {
		t.Fatal(err)
	}

	runtimes := sys.runtimes()
	runtimes["license.provider"] = licSrv.Runtime()

	// Where each service must live.
	umAddrs := make(map[simnet.Addr]bool)
	for _, a := range sys.umBackend {
		umAddrs[a] = true
	}
	cmAddrs := make(map[simnet.Addr]bool)
	for _, a := range sys.cmBackend {
		cmAddrs[a] = true
	}
	rootAddrs := make(map[simnet.Addr]bool)
	for _, srv := range sys.Servers {
		rootAddrs[srv.Addr()] = true
	}
	expected := map[string]map[simnet.Addr]bool{
		wire.SvcLogin1:      umAddrs,
		wire.SvcLogin2:      umAddrs,
		wire.SvcPolicyFeed:  umAddrs,
		wire.SvcSwitch1:     cmAddrs,
		wire.SvcSwitch2:     cmAddrs,
		wire.SvcChannelFeed: cmAddrs,
		wire.SvcChanList:    {addrPolicyMgr: true},
		wire.SvcRedirect:    {addrRedirect: true},
		wire.SvcJoin:        rootAddrs,
		wire.SvcSeek:        rootAddrs,
		wire.SvcKeyPush:     rootAddrs,
		wire.SvcContent:     rootAddrs,
		wire.SvcRenewal:     rootAddrs,
		wire.SvcLeave:       rootAddrs,
		wire.SvcPeerExpire:  rootAddrs,
		wire.SvcLicense:     {simnet.Addr("license.provider"): true},
	}

	// Actual placement, from the runtimes' own registries.
	actual := make(map[string]map[simnet.Addr]bool)
	for addr, rt := range runtimes {
		for service := range rt.Snapshot() {
			if actual[service] == nil {
				actual[service] = make(map[simnet.Addr]bool)
			}
			if actual[service][addr] {
				t.Errorf("service %s registered twice on %s", service, addr)
			}
			actual[service][addr] = true
		}
	}

	for service, want := range expected {
		got := actual[service]
		if len(got) != len(want) {
			t.Errorf("service %s on %d nodes, want %d (%v vs %v)", service, len(got), len(want), got, want)
			continue
		}
		for a := range want {
			if !got[a] {
				t.Errorf("service %s missing from %s", service, a)
			}
		}
	}
	// And the reverse: no runtime serves a name this test maps no owner
	// for (the sealed variants ride under a suffix on the node, not as
	// separate runtime endpoints).
	for service := range actual {
		if expected[service] == nil {
			t.Errorf("runtime serves %s but this test maps no owner — update the map", service)
		}
	}
}

// TestEndpointInstrumentation drives a full login + channel switch + join
// flow and checks the per-endpoint counters aggregate across the farms.
func TestEndpointInstrumentation(t *testing.T) {
	sys, err := NewSystem(Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployChannel(FreeToView("news", "News", "100")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterUser("a@e", "pw"); err != nil {
		t.Fatal(err)
	}
	c, err := sys.NewClient("a@e", "pw", geo.Addr(100, 1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		if err := c.FetchChannelList(nil); err != nil {
			t.Errorf("fetch: %v", err)
			return
		}
		if err := c.Watch("news"); err != nil {
			t.Errorf("watch: %v", err)
		}
	})
	sys.Sched.RunUntil(sys.Sched.Now().Add(2 * time.Minute))
	sys.StopAll()

	totals := sys.EndpointTotals()
	for _, service := range []string{
		wire.SvcRedirect, wire.SvcLogin1, wire.SvcLogin2,
		wire.SvcChanList, wire.SvcSwitch1, wire.SvcSwitch2, wire.SvcJoin,
	} {
		m := totals[service]
		if m.Requests == 0 {
			t.Errorf("endpoint %s served no requests: %+v", service, m)
		}
		if m.Errors != 0 || m.DecodeErrors != 0 {
			t.Errorf("endpoint %s errored on the happy path: %+v", service, m)
		}
	}
	// The login rounds hit exactly one backend each; the farm-wide
	// aggregate must see exactly one LOGIN1 and one LOGIN2.
	if totals[wire.SvcLogin1].Requests != 1 || totals[wire.SvcLogin2].Requests != 1 {
		t.Errorf("login totals = %+v / %+v", totals[wire.SvcLogin1], totals[wire.SvcLogin2])
	}
	// Per-runtime metrics stay queryable too.
	var umLogin1 int64
	for _, m := range sys.UserMgrs {
		umLogin1 += m.Runtime().Snapshot()[wire.SvcLogin1].Requests
	}
	if umLogin1 != 1 {
		t.Errorf("per-runtime LOGIN1 sum = %d, want 1", umLogin1)
	}

	// A svc.Metrics aggregate matches manual addition.
	var sum svc.Metrics
	for _, rt := range sys.runtimes() {
		sum.Add(rt.Snapshot()[wire.SvcJoin])
	}
	if sum.Requests != totals[wire.SvcJoin].Requests {
		t.Errorf("Join totals disagree: %d vs %d", sum.Requests, totals[wire.SvcJoin].Requests)
	}
}
