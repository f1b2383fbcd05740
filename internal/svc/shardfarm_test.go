package svc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

// testFarm is a sharded farm whose members are bare ShardViews — all a
// member needs to answer the ownership question — plus every view it ever
// built, so a departed member can still be asked.
type testFarm struct {
	*ShardedFarm[*ShardView]
	sched *sim.Scheduler
	views []*ShardView
}

func (tf *testFarm) build(_ *simnet.Node, view *ShardView) (*ShardView, error) {
	tf.views = append(tf.views, view)
	return view, nil
}

func deployTest(t *testing.T, n int, grace time.Duration) *testFarm {
	t.Helper()
	s, net := newNet()
	tf := &testFarm{sched: s}
	farm, err := DeployShardedFarm(net, n, ShardFarmConfig{GraceWindow: grace},
		func(i int) simnet.Addr { return simnet.Addr(fmt.Sprintf("m%d", i+1)) },
		tf.build)
	if err != nil {
		t.Fatal(err)
	}
	tf.ShardedFarm = farm
	return tf
}

// advance moves virtual time forward by d.
func (tf *testFarm) advance(d time.Duration) {
	tf.sched.Go(func() { tf.sched.Sleep(d) })
	tf.sched.Run()
}

const ownershipKeys = 200

func testKey(i int) string { return fmt.Sprintf("v%05d@e", i) }

// owners snapshots farm.Owner for every test key.
func (tf *testFarm) owners() map[string]simnet.Addr {
	out := make(map[string]simnet.Addr, ownershipKeys)
	for i := 0; i < ownershipKeys; i++ {
		out[testKey(i)], _ = tf.Owner(testKey(i))
	}
	return out
}

// checkOwnership is the one-writable-owner checker at unit scale. For
// every test key, the members (departed ones included) whose
// ShardView.Check accepts it are exactly the current ring owner plus,
// when prev is non-nil (inside a grace window), the owner prev records
// for the previous epoch. Every refusal is wire.CodeWrongShard naming
// the current owner and epoch. It returns how many keys changed owner
// between prev and now.
func (tf *testFarm) checkOwnership(t *testing.T, prev map[string]simnet.Addr) (moved int) {
	t.Helper()
	epoch := tf.Epoch()
	for key, owner := range tf.owners() {
		want := map[simnet.Addr]bool{owner: true}
		if prev != nil && prev[key] != owner {
			want[prev[key]] = true
			moved++
		}
		for _, v := range tf.views {
			err := v.Check(key)
			if (err == nil) != want[v.self] {
				t.Fatalf("%s: Check(%q) = %v, want accepted=%v (owner %s, prev %s)",
					v.self, key, err, want[v.self], owner, prev[key])
			}
			if err == nil {
				continue
			}
			var se *wire.ServiceError
			if !errors.As(err, &se) || se.Code != wire.CodeWrongShard {
				t.Fatalf("%s refused %q with %v, want %s", v.self, key, err, wire.CodeWrongShard)
			}
			if named := fmt.Sprintf("owned by %s at epoch %d", owner, epoch); !strings.Contains(se.Msg, named) {
				t.Fatalf("%s refused %q with %q, want it to name %q", v.self, key, se.Msg, named)
			}
		}
	}
	return moved
}

func TestShardedFarmDeployOwnershipAgreesWithRing(t *testing.T) {
	tf := deployTest(t, 3, 0)
	if st := tf.Stats(); st.Members != 3 || st.Epoch != 3 {
		t.Fatalf("stats = %+v", st)
	}
	for i := 0; i < ownershipKeys; i++ {
		key := testKey(i)
		owner, epoch := tf.Owner(key)
		ro, re, ok := tf.ring.Owner(key)
		if !ok || owner != ro || epoch != re {
			t.Fatalf("farm/ring disagree on %q: %v/%v", key, owner, ro)
		}
		m, _ := tf.Member(owner)
		if err := m.Check(key); err != nil {
			t.Fatalf("owner refused its own key: %v", err)
		}
	}
}

func TestShardedFarmAddMemberMovesExactlyTheTakenRanges(t *testing.T) {
	tf := deployTest(t, 2, 10*time.Second)
	tf.advance(11 * time.Second)
	before := tf.owners()
	tf.checkOwnership(t, nil)
	if err := tf.AddMember("m3", tf.build); err != nil {
		t.Fatal(err)
	}
	if _, ok := tf.Member("m3"); !ok {
		t.Fatal("added member missing")
	}
	moved := 0
	for key, owner := range tf.owners() {
		if was := before[key]; owner != was {
			if owner != "m3" {
				t.Fatalf("key %q moved %v → %v, not to the new member", key, was, owner)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved to the new member")
	}
	if got := tf.checkOwnership(t, before); got != moved {
		t.Fatalf("checker saw %d moved keys, owner snapshots %d", got, moved)
	}
	st := tf.Stats()
	if st.Members != 3 || st.Epoch != 3 || st.Handoffs != 3 {
		t.Fatalf("stats = %+v (moved %d)", st, moved)
	}
	tf.advance(11 * time.Second)
	tf.checkOwnership(t, nil)
}

func TestShardedFarmRemoveMemberRedistributesEverything(t *testing.T) {
	tf := deployTest(t, 3, 10*time.Second)
	tf.advance(11 * time.Second)
	before := tf.owners()
	if err := tf.RemoveMember("m2"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tf.Member("m2"); ok {
		t.Fatal("removed member still listed")
	}
	after := tf.owners()
	held := 0
	for key, owner := range after {
		if owner == "m2" {
			t.Fatalf("removed member still owns %q", key)
		}
		if was := before[key]; was != "m2" && owner != was {
			t.Fatalf("key %q moved %v → %v though its owner stayed", key, was, owner)
		}
		if before[key] == "m2" {
			held++
		}
	}
	if held == 0 {
		t.Fatal("removed member owned no keys")
	}
	// Inside the grace window m2 still accepts exactly the keys it held.
	if got := tf.checkOwnership(t, before); got != held {
		t.Fatalf("checker saw %d moved keys, m2 held %d", got, held)
	}
	if st := tf.Stats(); st.Members != 2 || st.Epoch != 4 || st.Handoffs != 4 {
		t.Fatalf("stats = %+v", st)
	}
	tf.advance(11 * time.Second)
	tf.checkOwnership(t, nil)
	if err := tf.RemoveMember("m2"); err == nil {
		t.Fatal("removing an absent member succeeded")
	}
}

func TestShardedFarmRefusesRemovingLastMember(t *testing.T) {
	tf := deployTest(t, 1, 0)
	if err := tf.RemoveMember("m1"); err == nil {
		t.Fatal("removed the last member")
	}
}

// TestShardViewGraceWindowCoversOldOwner runs the ownership checker
// across a farm's whole life: a deploy, an AddMember and a RemoveMember,
// each checked inside its grace window (old and new owner both accept)
// and after it (exactly one member accepts). The departed member accepts
// its old keys only until its grace window ends.
func TestShardViewGraceWindowCoversOldOwner(t *testing.T) {
	const grace = 10 * time.Second
	tf := deployTest(t, 2, grace)
	// The deploy's last AddMember opened a window over the one-member
	// ring, which gave m1 every key.
	onlyM1 := make(map[string]simnet.Addr, ownershipKeys)
	for i := 0; i < ownershipKeys; i++ {
		onlyM1[testKey(i)] = "m1"
	}
	tf.checkOwnership(t, onlyM1)
	tf.advance(grace + time.Second)
	tf.checkOwnership(t, nil)

	before := tf.owners()
	if err := tf.AddMember("m3", tf.build); err != nil {
		t.Fatal(err)
	}
	if tf.checkOwnership(t, before) == 0 {
		t.Fatal("no key moved to the new member")
	}
	tf.advance(grace - time.Second)
	tf.checkOwnership(t, before) // still inside the window
	tf.advance(2 * time.Second)
	tf.checkOwnership(t, nil)

	before = tf.owners()
	if err := tf.RemoveMember("m1"); err != nil {
		t.Fatal(err)
	}
	// tf.views still holds the departed m1: it accepts its old keys
	// inside the window and none after it.
	if tf.checkOwnership(t, before) == 0 {
		t.Fatal("the departed member held no key")
	}
	tf.advance(grace + time.Second)
	tf.checkOwnership(t, nil)
	if st := tf.Stats(); st.Members != 2 || st.Epoch != 4 || st.Handoffs != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShardedFarmAddMemberBuildErrorLeavesNoNode(t *testing.T) {
	tf := deployTest(t, 2, 0)
	boom := errors.New("boom")
	err := tf.AddMember("m3", func(*simnet.Node, *ShardView) (*ShardView, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if st := tf.Stats(); st.Members != 2 || st.Epoch != 2 {
		t.Fatalf("failed add mutated the farm: %+v", st)
	}
	// The address must be free again: NewNode panics on duplicates.
	tf.net.NewNode("m3")
	// And a retried add still works (fresh address).
	if err := tf.AddMember("m4", tf.build); err != nil {
		t.Fatal(err)
	}
}

func TestShardedFarmDuplicateAddRefused(t *testing.T) {
	tf := deployTest(t, 2, 0)
	if err := tf.AddMember("m1", tf.build); err == nil {
		t.Fatal("duplicate member address accepted")
	}
}

func TestDeployShardedFarmBuildErrorCleansUp(t *testing.T) {
	_, net := newNet()
	boom := errors.New("boom")
	calls := 0
	_, err := DeployShardedFarm(net, 3, ShardFarmConfig{},
		func(i int) simnet.Addr { return simnet.Addr(fmt.Sprintf("m%d", i+1)) },
		func(_ *simnet.Node, view *ShardView) (*ShardView, error) {
			calls++
			if calls == 2 {
				return nil, boom
			}
			return view, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Every address from the aborted deploy must be free again.
	net.NewNode("m1")
	net.NewNode("m2")
}
