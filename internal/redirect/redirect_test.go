package redirect

import (
	"testing"
	"time"

	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

var t0 = time.Date(2008, 6, 23, 12, 0, 0, 0, time.UTC)

func setup(t *testing.T) (*sim.Scheduler, *simnet.Network, *Manager) {
	t.Helper()
	s := sim.New(t0, 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: time.Millisecond}))
	node := net.NewNode("rm.provider")
	mgr, err := New(node, Config{
		Default:      Assignment{UserMgr: "um-default", UserMgrKey: []byte("kd")},
		PolicyMgr:    "pm.provider",
		PolicyMgrKey: []byte("kp"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, net, mgr
}

var lookupSeq int

func lookup(s *sim.Scheduler, net *simnet.Network, email string) *wire.RedirectResp {
	lookupSeq++
	cli := net.NewNode(simnet.Addr("cli-" + email + "-" + string(rune('a'+lookupSeq))))
	var resp *wire.RedirectResp
	s.Go(func() {
		req := &wire.RedirectReq{Email: email}
		raw, err := cli.Call("rm.provider", wire.SvcRedirect, req.Encode(), 0)
		if err != nil {
			return
		}
		resp, _ = wire.DecodeRedirectResp(raw)
	})
	s.Run()
	return resp
}

func TestDefaultAssignment(t *testing.T) {
	s, net, mgr := setup(t)
	resp := lookup(s, net, "anyone@e")
	if resp == nil || resp.UserMgr != "um-default" || string(resp.UserMgrKey) != "kd" {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.PolicyMgr != "pm.provider" || string(resp.PolicyMgrKey) != "kp" {
		t.Fatalf("policy manager coords missing: %+v", resp)
	}
	if mgr.Lookups() != 1 {
		t.Fatalf("lookups = %d", mgr.Lookups())
	}
}

func TestExplicitAssignmentAndUnassign(t *testing.T) {
	s, net, mgr := setup(t)
	mgr.Assign("eu@e", Assignment{UserMgr: "um-eu", UserMgrKey: []byte("ke")})
	if resp := lookup(s, net, "eu@e"); resp.UserMgr != "um-eu" {
		t.Fatalf("assigned lookup = %+v", resp)
	}
	if resp := lookup(s, net, "us@e"); resp.UserMgr != "um-default" {
		t.Fatalf("unassigned lookup = %+v", resp)
	}
}

func TestNewRequiresDefault(t *testing.T) {
	s := sim.New(t0, 1)
	net := simnet.New(s)
	if _, err := New(net.NewNode("rm"), Config{}); err == nil {
		t.Fatal("config without default accepted")
	}
}
