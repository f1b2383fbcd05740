package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

// farmLayout is what a deployment shows of its manager farms: the
// backend and VIP lists its accessors return, the node each member runs
// on in build order, and the Policy Manager's subscription lists as the
// feeds of one push arrive. The Policy Manager sends down its lists in
// order and every send draws its link jitter from the seeded stream in
// turn, so a reordered list reorders the arrivals.
type farmLayout struct {
	userMgrBackends    []simnet.Addr
	channelMgrBackends []simnet.Addr
	infraAddrs         []simnet.Addr
	userMgrNodes       []simnet.Addr
	chanMgrNodes       []simnet.Addr // partitions in Options order
	feeds              []string      // "addr service" in arrival order
}

// layoutOf reads sys's layout. It deploys channel id to make the Policy
// Manager push, with every member's feed handler replaced by a recorder.
func layoutOf(t *testing.T, sys *System, id string) farmLayout {
	t.Helper()
	l := farmLayout{
		userMgrBackends:    sys.UserMgrBackends(),
		channelMgrBackends: sys.ChannelMgrBackends(),
		infraAddrs:         sys.InfraAddrs(),
	}
	record := func(node *simnet.Node, service string) {
		node.Handle(service, func(simnet.Addr, []byte) ([]byte, error) {
			l.feeds = append(l.feeds, fmt.Sprintf("%s %s", node.Addr(), service))
			return nil, nil
		})
	}
	for _, m := range sys.UserMgrs() {
		node := m.Runtime().Node()
		l.userMgrNodes = append(l.userMgrNodes, node.Addr())
		record(node, wire.SvcPolicyFeed)
	}
	for _, part := range sys.Opts.Partitions {
		for _, m := range sys.ChanMgrs(part) {
			node := m.Runtime().Node()
			l.chanMgrNodes = append(l.chanMgrNodes, node.Addr())
			record(node, wire.SvcChannelFeed)
		}
	}
	if err := sys.DeployChannel(FreeToView(id, id, "100")); err != nil {
		t.Fatal(err)
	}
	sys.Sched.RunUntil(sys.Sched.Now().Add(time.Second))
	return l
}

func addrs(s ...string) []simnet.Addr {
	out := make([]simnet.Addr, len(s))
	for i, a := range s {
		out[i] = simnet.Addr(a)
	}
	return out
}

// TestFarmLayout pins every manager farm's members, addresses and
// subscriptions across three deployments and one grow/drain/grow
// sequence. Build order, each list and the Policy Manager's push order
// follow Options order — domains, then partitions, then member index —
// and feed every golden fingerprint, so none of them may move.
func TestFarmLayout(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want farmLayout
	}{
		{
			name: "defaults",
			opts: Options{Seed: 5},
			want: farmLayout{
				userMgrBackends:    addrs("um1.provider", "um2.provider"),
				channelMgrBackends: addrs("cm1.p1.provider", "cm2.p1.provider", "cm1.p2.provider", "cm2.p2.provider"),
				infraAddrs:         addrs("rm.provider", "pm.provider", "um.provider", "cm.p1.provider", "cm.p2.provider"),
				userMgrNodes:       addrs("um1.provider", "um2.provider"),
				chanMgrNodes:       addrs("cm1.p1.provider", "cm2.p1.provider", "cm1.p2.provider", "cm2.p2.provider"),
				feeds: []string{
					"um1.provider mgmt.policy",
					"cm2.p1.provider mgmt.channels",
					"cm2.p2.provider mgmt.channels",
					"um2.provider mgmt.policy",
					"cm1.p1.provider mgmt.channels",
					"cm1.p2.provider mgmt.channels",
				},
			},
		},
		{
			name: "domains",
			opts: Options{Seed: 5, Domains: []string{"eu", "us"}},
			want: farmLayout{
				userMgrBackends:    addrs("um1.eu.provider", "um2.eu.provider", "um1.us.provider", "um2.us.provider"),
				channelMgrBackends: addrs("cm1.p1.provider", "cm2.p1.provider", "cm1.p2.provider", "cm2.p2.provider"),
				infraAddrs:         addrs("rm.provider", "pm.provider", "um.eu.provider", "um.us.provider", "cm.p1.provider", "cm.p2.provider"),
				userMgrNodes:       addrs("um1.eu.provider", "um2.eu.provider", "um1.us.provider", "um2.us.provider"),
				chanMgrNodes:       addrs("cm1.p1.provider", "cm2.p1.provider", "cm1.p2.provider", "cm2.p2.provider"),
				feeds: []string{
					"um1.us.provider mgmt.policy",
					"um1.eu.provider mgmt.policy",
					"cm2.p1.provider mgmt.channels",
					"cm2.p2.provider mgmt.channels",
					"um2.eu.provider mgmt.policy",
					"cm1.p1.provider mgmt.channels",
					"um2.us.provider mgmt.policy",
					"cm1.p2.provider mgmt.channels",
				},
			},
		},
		{
			name: "three by three",
			opts: Options{Seed: 5, UserMgrFarm: 3, ChannelMgrFarm: 3, Partitions: []string{"p1", "p2", "p3"}},
			want: farmLayout{
				userMgrBackends:    addrs("um1.provider", "um2.provider", "um3.provider"),
				channelMgrBackends: addrs("cm1.p1.provider", "cm2.p1.provider", "cm3.p1.provider", "cm1.p2.provider", "cm2.p2.provider", "cm3.p2.provider", "cm1.p3.provider", "cm2.p3.provider", "cm3.p3.provider"),
				infraAddrs:         addrs("rm.provider", "pm.provider", "um.provider", "cm.p1.provider", "cm.p2.provider", "cm.p3.provider"),
				userMgrNodes:       addrs("um1.provider", "um2.provider", "um3.provider"),
				chanMgrNodes:       addrs("cm1.p1.provider", "cm2.p1.provider", "cm3.p1.provider", "cm1.p2.provider", "cm2.p2.provider", "cm3.p2.provider", "cm1.p3.provider", "cm2.p3.provider", "cm3.p3.provider"),
				feeds: []string{
					"um2.provider mgmt.policy",
					"cm3.p3.provider mgmt.channels",
					"cm1.p3.provider mgmt.channels",
					"cm2.p2.provider mgmt.channels",
					"cm2.p1.provider mgmt.channels",
					"cm1.p2.provider mgmt.channels",
					"um3.provider mgmt.policy",
					"cm3.p2.provider mgmt.channels",
					"cm1.p1.provider mgmt.channels",
					"cm2.p3.provider mgmt.channels",
					"cm3.p1.provider mgmt.channels",
					"um1.provider mgmt.policy",
				},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewSystem(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.StopAll()
			got := layoutOf(t, sys, "news")
			checkLayout(t, got, tc.want)
		})
	}

	t.Run("add remove add", func(t *testing.T) {
		sys, err := NewSystem(Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.StopAll()
		added, err := sys.AddUserMgrMember()
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RemoveUserMgrMember(added); err != nil {
			t.Fatal(err)
		}
		if added, err = sys.AddUserMgrMember(); err != nil || added != "um4.provider" {
			t.Fatalf("second add = %s, %v; want um4.provider", added, err)
		}
		sys.Sched.RunUntil(sys.Sched.Now().Add(time.Second))
		checkLayout(t, layoutOf(t, sys, "news"), farmLayout{
			userMgrBackends:    addrs("um1.provider", "um2.provider", "um4.provider"),
			channelMgrBackends: addrs("cm1.p1.provider", "cm2.p1.provider", "cm1.p2.provider", "cm2.p2.provider"),
			infraAddrs:         addrs("rm.provider", "pm.provider", "um.provider", "cm.p1.provider", "cm.p2.provider"),
			userMgrNodes:       addrs("um1.provider", "um2.provider", "um3.provider", "um4.provider"),
			chanMgrNodes:       addrs("cm1.p1.provider", "cm2.p1.provider", "cm1.p2.provider", "cm2.p2.provider"),
			feeds: []string{
				"um3.provider mgmt.policy",
				"um1.provider mgmt.policy",
				"cm1.p2.provider mgmt.channels",
				"cm2.p1.provider mgmt.channels",
				"cm2.p2.provider mgmt.channels",
				"um2.provider mgmt.policy",
				"cm1.p1.provider mgmt.channels",
				"um4.provider mgmt.policy",
			},
		})
	})
}

func checkLayout(t *testing.T, got, want farmLayout) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("layout:\n got %#v\nwant %#v", got, want)
	}
	// One push reaches every member ever built, drained ones included,
	// exactly once.
	var members []string
	for _, a := range append(append([]simnet.Addr(nil), got.userMgrNodes...), got.chanMgrNodes...) {
		members = append(members, string(a))
	}
	var fed []string
	for _, f := range got.feeds {
		fed = append(fed, strings.Fields(f)[0])
	}
	sort.Strings(members)
	sort.Strings(fed)
	if !reflect.DeepEqual(fed, members) {
		t.Errorf("one push fed %v, want each of %v once", fed, members)
	}
}
