package svc

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

// kvMember is the minimal ShardMember: a key→value map with export and
// import, standing in for a manager's per-account hot state.
type kvMember struct {
	view *ShardView
	data map[string]int
}

func (m *kvMember) ExportShard(leaving func(key string) bool) []HandoffRecord {
	var out []HandoffRecord
	for k, v := range m.data {
		if leaving(k) {
			out = append(out, HandoffRecord{Key: k, Data: v})
			delete(m.data, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (m *kvMember) ImportShard(recs []HandoffRecord) {
	for _, r := range recs {
		m.data[r.Key] = r.Data.(int)
	}
}

func buildKV(_ *simnet.Node, view *ShardView) (*kvMember, error) {
	return &kvMember{view: view, data: make(map[string]int)}, nil
}

func deployKV(t *testing.T, n int) (*ShardedFarm[*kvMember], *simnet.Network) {
	t.Helper()
	_, net := newNet()
	farm, err := DeployShardedFarm(net, n, ShardFarmConfig{},
		func(i int) simnet.Addr { return simnet.Addr(fmt.Sprintf("m%d", i+1)) },
		buildKV)
	if err != nil {
		t.Fatal(err)
	}
	return farm, net
}

// seed stores keys 0..n-1 on their owning members, returning the
// ownership snapshot.
func seedKV(farm *ShardedFarm[*kvMember], n int) map[string]simnet.Addr {
	owners := make(map[string]simnet.Addr, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("v%05d@e", i)
		owner, _ := farm.Owner(key)
		m, _ := farm.Member(owner)
		m.data[key] = i
		owners[key] = owner
	}
	return owners
}

func TestShardedFarmDeployOwnershipAgreesWithRing(t *testing.T) {
	farm, _ := deployKV(t, 3)
	if st := farm.Stats(); st.Members != 3 || st.Epoch != 3 {
		t.Fatalf("stats = %+v", st)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("v%05d@e", i)
		owner, epoch := farm.Owner(key)
		ro, re, ok := farm.ring.Owner(key)
		if !ok || owner != ro || epoch != re {
			t.Fatalf("farm/ring disagree on %q: %v/%v", key, owner, ro)
		}
		m, _ := farm.Member(owner)
		if err := m.view.Check(key); err != nil {
			t.Fatalf("owner refused its own key: %v", err)
		}
	}
}

func TestShardedFarmAddMemberMovesExactlyTheTakenRanges(t *testing.T) {
	farm, _ := deployKV(t, 2)
	const n = 400
	before := seedKV(farm, n)
	if err := farm.AddMember("m3", buildKV); err != nil {
		t.Fatal(err)
	}
	newM, ok := farm.Member("m3")
	if !ok {
		t.Fatal("added member missing")
	}
	moved := 0
	for key, was := range before {
		owner, _ := farm.Owner(key)
		m, _ := farm.Member(owner)
		if _, here := m.data[key]; !here {
			t.Fatalf("key %q not at its owner %v after handoff", key, owner)
		}
		if owner != was {
			if owner != "m3" {
				t.Fatalf("key %q moved %v → %v, not to the new member", key, was, owner)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved to the new member")
	}
	if len(newM.data) != moved {
		t.Fatalf("new member holds %d records, %d moved", len(newM.data), moved)
	}
	st := farm.Stats()
	if st.Members != 3 || st.Epoch != 3 || st.Handoffs != 3 || st.KeysMoved != int64(moved) {
		t.Fatalf("stats = %+v (moved %d)", st, moved)
	}
}

func TestShardedFarmRemoveMemberRedistributesEverything(t *testing.T) {
	farm, _ := deployKV(t, 3)
	const n = 300
	seedKV(farm, n)
	if err := farm.RemoveMember("m2"); err != nil {
		t.Fatal(err)
	}
	if _, ok := farm.Member("m2"); ok {
		t.Fatal("removed member still listed")
	}
	total := 0
	for _, m := range farm.Members() {
		total += len(m.data)
	}
	if total != n {
		t.Fatalf("records after removal = %d, want %d", total, n)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("v%05d@e", i)
		owner, _ := farm.Owner(key)
		if owner == "m2" {
			t.Fatalf("removed member still owns %q", key)
		}
		m, _ := farm.Member(owner)
		if _, here := m.data[key]; !here {
			t.Fatalf("key %q lost in the removal handoff", key)
		}
	}
	if err := farm.RemoveMember("m2"); err == nil {
		t.Fatal("removing an absent member succeeded")
	}
}

func TestShardedFarmRefusesRemovingLastMember(t *testing.T) {
	farm, _ := deployKV(t, 1)
	if err := farm.RemoveMember("m1"); err == nil {
		t.Fatal("removed the last member")
	}
}

func TestShardViewGraceWindowCoversOldOwner(t *testing.T) {
	s, net := newNet()
	farm, err := DeployShardedFarm(net, 2, ShardFarmConfig{GraceWindow: 10 * time.Second},
		func(i int) simnet.Addr { return simnet.Addr(fmt.Sprintf("m%d", i+1)) },
		buildKV)
	if err != nil {
		t.Fatal(err)
	}
	seedKV(farm, 200)
	// Find a key the grown ring moves to m3.
	if err := farm.AddMember("m3", buildKV); err != nil {
		t.Fatal(err)
	}
	var movedKey string
	var oldOwner simnet.Addr
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("v%05d@e", i)
		if o, _ := farm.Owner(key); o == "m3" {
			newM, _ := farm.Member("m3")
			if _, ok := newM.data[key]; ok { // was seeded, so it moved
				movedKey = key
				break
			}
		}
	}
	if movedKey == "" {
		t.Fatal("no seeded key moved to the new member")
	}
	// Its previous owner under the old ring:
	prev := farm.ring.Clone()
	prev.Remove("m3")
	po, _, _ := prev.Owner(movedKey)
	oldOwner = po

	oldM, _ := farm.Member(oldOwner)
	if err := oldM.view.Check(movedKey); err != nil {
		t.Fatalf("grace window: old owner refused %q right after the commit: %v", movedKey, err)
	}
	newM, _ := farm.Member("m3")
	if err := newM.view.Check(movedKey); err != nil {
		t.Fatalf("new owner refused its key: %v", err)
	}

	// Let the grace window lapse; the old owner must now refuse with the
	// typed wrong-shard frame naming the current owner and epoch.
	s.Go(func() { s.Sleep(11 * time.Second) })
	s.Run()
	err = oldM.view.Check(movedKey)
	var se *wire.ServiceError
	if !errors.As(err, &se) || se.Code != wire.CodeWrongShard {
		t.Fatalf("after grace: err = %v, want %s", err, wire.CodeWrongShard)
	}
	if err := newM.view.Check(movedKey); err != nil {
		t.Fatalf("current owner refused after grace: %v", err)
	}
	// A member that never owned the key was never allowed.
	for _, m := range farm.Members() {
		if m.view.self != oldOwner && m.view.self != "m3" {
			if err := m.view.Check(movedKey); err == nil {
				t.Fatalf("bystander %v allowed to serve %q", m.view.self, movedKey)
			}
		}
	}
}

func TestShardedFarmAddMemberBuildErrorLeavesNoNode(t *testing.T) {
	farm, net := deployKV(t, 2)
	boom := errors.New("boom")
	err := farm.AddMember("m3", func(*simnet.Node, *ShardView) (*kvMember, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if st := farm.Stats(); st.Members != 2 || st.Epoch != 2 {
		t.Fatalf("failed add mutated the farm: %+v", st)
	}
	// The address must be free again: NewNode panics on duplicates.
	net.NewNode("m3")
	// And a retried add still works (fresh address).
	if err := farm.AddMember("m4", buildKV); err != nil {
		t.Fatal(err)
	}
}

func TestShardedFarmDuplicateAddRefused(t *testing.T) {
	farm, _ := deployKV(t, 2)
	if err := farm.AddMember("m1", buildKV); err == nil {
		t.Fatal("duplicate member address accepted")
	}
}

func TestDeployShardedFarmBuildErrorCleansUp(t *testing.T) {
	_, net := newNet()
	boom := errors.New("boom")
	calls := 0
	_, err := DeployShardedFarm(net, 3, ShardFarmConfig{},
		func(i int) simnet.Addr { return simnet.Addr(fmt.Sprintf("m%d", i+1)) },
		func(node *simnet.Node, view *ShardView) (*kvMember, error) {
			calls++
			if calls == 2 {
				return nil, boom
			}
			return buildKV(node, view)
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Every address from the aborted deploy must be free again.
	net.NewNode("m1")
	net.NewNode("m2")
}
