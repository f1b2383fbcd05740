package policy

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"p2pdrm/internal/attr"
)

var (
	now      = time.Date(2008, 7, 10, 19, 0, 0, 0, time.UTC)
	boStart  = time.Date(2008, 7, 10, 20, 0, 0, 0, time.UTC)
	boEnd    = time.Date(2008, 7, 10, 21, 0, 0, 0, time.UTC)
	subEnd   = time.Date(2008, 7, 31, 0, 0, 0, 0, time.UTC)
	userR100 = attr.List{{Name: attr.NameRegion, Value: "100"}}
)

// channelA mirrors Fig. 2(c)'s Channel A: free in region 101, and in
// region 100 for subscribers of package 101, with a blackout window.
func channelA() *Channel {
	boAttr, boRule := Blackout(boStart, boEnd, 100, now)
	return &Channel{
		ID:   "chA",
		Name: "Channel A",
		Attrs: attr.List{
			{Name: attr.NameRegion, Value: "100"},
			{Name: attr.NameRegion, Value: "101"},
			{Name: attr.NameSubscription, Value: "101"},
			boAttr,
		},
		Rules: []Rule{
			{Priority: 50, Conds: []Cond{
				{Name: attr.NameRegion, Value: "100"},
				{Name: attr.NameSubscription, Value: "101"},
			}, Effect: Accept},
			{Priority: 50, Conds: []Cond{{Name: attr.NameRegion, Value: "101"}}, Effect: Accept},
			boRule,
		},
	}
}

func TestFreeRegionAccepted(t *testing.T) {
	u := attr.List{{Name: attr.NameRegion, Value: "101"}}
	d := channelA().EvaluateUser(u, now)
	if d.Effect != Accept {
		t.Fatalf("region 101 user rejected: %+v", d)
	}
}

func TestSubscriberAccepted(t *testing.T) {
	u := attr.List{
		{Name: attr.NameRegion, Value: "100"},
		{Name: attr.NameSubscription, Value: "101", ETime: subEnd},
	}
	if d := channelA().EvaluateUser(u, now); d.Effect != Accept {
		t.Fatalf("subscriber rejected: %+v", d)
	}
}

func TestNonSubscriberInPaidRegionRejected(t *testing.T) {
	if d := channelA().EvaluateUser(userR100, now); d.Effect != Reject {
		t.Fatalf("non-subscriber accepted: %+v", d)
	}
	if d := channelA().EvaluateUser(userR100, now); d.RuleIndex != -1 {
		t.Fatalf("default deny should report RuleIndex -1, got %d", d.RuleIndex)
	}
}

func TestExpiredSubscriptionRejected(t *testing.T) {
	u := attr.List{
		{Name: attr.NameRegion, Value: "100"},
		{Name: attr.NameSubscription, Value: "101", ETime: now.Add(-time.Hour)},
	}
	if d := channelA().EvaluateUser(u, now); d.Effect != Reject {
		t.Fatalf("expired subscription accepted: %+v", d)
	}
}

func TestWrongRegionRejected(t *testing.T) {
	u := attr.List{{Name: attr.NameRegion, Value: "999"}}
	if d := channelA().EvaluateUser(u, now); d.Effect != Reject {
		t.Fatalf("out-of-region user accepted: %+v", d)
	}
}

func TestBlackoutRejectsEveryoneDuringWindow(t *testing.T) {
	ch := channelA()
	during := boStart.Add(30 * time.Minute)
	free := attr.List{{Name: attr.NameRegion, Value: "101"}}
	sub := attr.List{
		{Name: attr.NameRegion, Value: "100"},
		{Name: attr.NameSubscription, Value: "101"},
	}
	for _, u := range []attr.List{free, sub, nil} {
		if d := ch.EvaluateUser(u, during); d.Effect != Reject {
			t.Fatalf("user %v accepted during blackout: %+v", u, d)
		}
	}
}

func TestBlackoutLiftsAfterWindow(t *testing.T) {
	ch := channelA()
	after := boEnd.Add(time.Minute)
	free := attr.List{{Name: attr.NameRegion, Value: "101"}}
	if d := ch.EvaluateUser(free, after); d.Effect != Accept {
		t.Fatalf("user rejected after blackout ended: %+v", d)
	}
	before := boStart.Add(-time.Minute)
	if d := ch.EvaluateUser(free, before); d.Effect != Accept {
		t.Fatalf("user rejected before blackout began: %+v", d)
	}
}

func TestHigherPriorityOverrides(t *testing.T) {
	ch := &Channel{
		ID: "x",
		Attrs: attr.List{
			{Name: attr.NameRegion, Value: "100"},
			{Name: attr.NameRegion, Value: attr.Any},
		},
		Rules: []Rule{
			{Priority: 50, Conds: []Cond{{Name: attr.NameRegion, Value: "100"}}, Effect: Accept},
			{Priority: 100, Conds: []Cond{{Name: attr.NameRegion, Value: attr.Any}}, Effect: Reject},
		},
	}
	if d := ch.EvaluateUser(userR100, now); d.Effect != Reject || d.RuleIndex != 1 {
		t.Fatalf("priority-100 REJECT did not override: %+v", d)
	}
}

func TestEqualPriorityListOrderWins(t *testing.T) {
	ch := &Channel{
		ID:    "x",
		Attrs: attr.List{{Name: attr.NameRegion, Value: "100"}},
		Rules: []Rule{
			{Priority: 50, Conds: []Cond{{Name: attr.NameRegion, Value: "100"}}, Effect: Accept},
			{Priority: 50, Conds: []Cond{{Name: attr.NameRegion, Value: "100"}}, Effect: Reject},
		},
	}
	if d := ch.EvaluateUser(userR100, now); d.Effect != Accept || d.RuleIndex != 0 {
		t.Fatalf("tie-break by list order failed: %+v", d)
	}
}

func TestRuleNotArmedWithoutChannelAttribute(t *testing.T) {
	// A rule referencing an attribute the channel does not (currently)
	// hold must not fire at all.
	ch := &Channel{
		ID:    "x",
		Attrs: attr.List{}, // no attributes
		Rules: []Rule{
			{Priority: 50, Conds: []Cond{{Name: attr.NameRegion, Value: "100"}}, Effect: Accept},
		},
	}
	if d := ch.EvaluateUser(userR100, now); d.Effect != Reject {
		t.Fatalf("unarmed rule fired: %+v", d)
	}
}

func TestEmptyCondsRuleAlwaysDecides(t *testing.T) {
	ch := &Channel{
		ID:    "x",
		Rules: []Rule{{Priority: 1, Effect: Accept}},
	}
	if d := ch.EvaluateUser(nil, now); d.Effect != Accept {
		t.Fatalf("unconditional rule did not fire: %+v", d)
	}
}

func TestNoRulesDefaultDeny(t *testing.T) {
	ch := &Channel{ID: "x"}
	if d := ch.EvaluateUser(userR100, now); d.Effect != Reject || d.RuleIndex != -1 {
		t.Fatalf("default deny broken: %+v", d)
	}
}

func TestTouchAttrs(t *testing.T) {
	ch := channelA()
	ch.TouchAttrs(boEnd)
	for _, a := range ch.Attrs {
		if !a.UTime.Equal(boEnd) {
			t.Fatalf("attribute %v utime not touched", a)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	ch := channelA()
	cp := ch.Clone()
	cp.Attrs[0].Value = "tampered"
	cp.Rules[0].Conds[0].Value = "tampered"
	if ch.Attrs[0].Value == "tampered" || ch.Rules[0].Conds[0].Value == "tampered" {
		t.Fatal("Clone shares backing arrays")
	}
}

func TestRuleEncodeDecode(t *testing.T) {
	r := Rule{Priority: -5, Conds: []Cond{
		{Name: attr.NameRegion, Value: "100"},
		{Name: attr.NameSubscription, Value: "101"},
	}, Effect: Reject}
	dec, rest, err := decodeRule(appendRule(nil, r))
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v rest=%d", err, len(rest))
	}
	if dec.Priority != r.Priority || dec.Effect != r.Effect || len(dec.Conds) != 2 {
		t.Fatalf("decode = %+v, want %+v", dec, r)
	}
}

func TestRuleDecodeBadEffect(t *testing.T) {
	buf := appendRule(nil, Rule{Priority: 1, Effect: Accept})
	buf[4] = 99
	if _, _, err := decodeRule(buf); err == nil {
		t.Fatal("bogus effect accepted")
	}
}

func TestChannelEncodeDecodeRoundTrip(t *testing.T) {
	ch := channelA()
	ch.Partition = "p1"
	ch.MgrAddr = "cm1.provider"
	ch.MgrKey = []byte("pubkeybytes")
	dec, rest, err := decodeChannel(appendChannel(nil, ch))
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v rest=%d", err, len(rest))
	}
	if dec.ID != ch.ID || dec.Name != ch.Name || dec.Partition != "p1" ||
		dec.MgrAddr != "cm1.provider" || string(dec.MgrKey) != "pubkeybytes" {
		t.Fatalf("decode = %+v", dec)
	}
	if len(dec.Attrs) != len(ch.Attrs) || len(dec.Rules) != len(ch.Rules) {
		t.Fatalf("attrs/rules count mismatch: %d/%d", len(dec.Attrs), len(dec.Rules))
	}
	// Behaviour preserved through the wire.
	u := attr.List{{Name: attr.NameRegion, Value: "101"}}
	if d := dec.EvaluateUser(u, now); d.Effect != Accept {
		t.Fatalf("decoded channel lost policy behaviour: %+v", d)
	}
}

func TestChannelsEncodeDecode(t *testing.T) {
	chs := []*Channel{channelA(), {ID: "chB", Name: "B"}}
	dec, rest, err := decodeChannels(AppendChannels(nil, chs))
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v rest=%d", err, len(rest))
	}
	if len(dec) != 2 || dec[0].ID != "chA" || dec[1].ID != "chB" {
		t.Fatalf("decoded %d channels: %+v", len(dec), dec)
	}
	// Sized up front: one exact allocation from nil, the same bytes after
	// an existing prefix, none at all into room that is already there.
	enc := AppendChannels(nil, chs)
	if len(enc) != cap(enc) {
		t.Fatalf("AppendChannels(nil): len %d, cap %d — encodedLen is off", len(enc), cap(enc))
	}
	if got := AppendChannels([]byte("hdr"), chs); string(got[:3]) != "hdr" || !bytes.Equal(got[3:], enc) {
		t.Fatal("AppendChannels after a prefix differs")
	}
	room := make([]byte, 0, len(enc))
	if n := testing.AllocsPerRun(20, func() { _ = AppendChannels(room, chs) }); n != 0 {
		t.Fatalf("AppendChannels into sufficient capacity allocates %.0f objects", n)
	}
}

func TestChannelDecodeTruncated(t *testing.T) {
	buf := appendChannel(nil, channelA())
	for cut := 0; cut < len(buf); cut += 7 {
		if _, _, err := decodeChannel(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestEffectString(t *testing.T) {
	if Accept.String() != "ACCEPT" || Reject.String() != "REJECT" {
		t.Fatal("effect strings wrong")
	}
	if Effect(9).String() == "" {
		t.Fatal("unknown effect empty")
	}
}

// Property: evaluation is deterministic and default-deny — for arbitrary
// users against channel A, the decision is stable across calls and is
// REJECT whenever no rule index is reported.
func TestEvaluateDeterministicProperty(t *testing.T) {
	ch := channelA()
	f := func(region, sub string) bool {
		u := attr.List{
			{Name: attr.NameRegion, Value: attr.Value(region)},
			{Name: attr.NameSubscription, Value: attr.Value(sub)},
		}
		d1 := ch.EvaluateUser(u, now)
		d2 := ch.EvaluateUser(u, now)
		if d1 != d2 {
			return false
		}
		if d1.RuleIndex == -1 && d1.Effect != Reject {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: rules round-trip the codec.
func TestRuleRoundTripProperty(t *testing.T) {
	f := func(prio int32, names []string, accept bool) bool {
		if len(names) > 8 {
			names = names[:8]
		}
		r := Rule{Priority: int(prio), Effect: Accept}
		if !accept {
			r.Effect = Reject
		}
		for _, n := range names {
			r.Conds = append(r.Conds, Cond{Name: n, Value: "v"})
		}
		dec, rest, err := decodeRule(appendRule(nil, r))
		if err != nil || len(rest) != 0 {
			return false
		}
		if dec.Priority != r.Priority || dec.Effect != r.Effect || len(dec.Conds) != len(r.Conds) {
			return false
		}
		for i := range r.Conds {
			if dec.Conds[i] != r.Conds[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEvaluateAllocBudget: deciding a request reads the channel's and the
// user's attribute lists in place — before, during and after a blackout,
// for an accepted, a rejected and a default-denied user — and allocates
// nothing; only a channel of more than 16 rules pays for its order slice.
func TestEvaluateAllocBudget(t *testing.T) {
	ch := channelA()
	users := []attr.List{
		{{Name: attr.NameRegion, Value: "101"}},
		{{Name: attr.NameRegion, Value: "100"}, {Name: attr.NameSubscription, Value: "101", ETime: subEnd}},
		userR100,
		{{Name: attr.NameRegion, Value: "300"}},
	}
	for _, at := range []time.Time{now, boStart.Add(time.Minute), boEnd.Add(time.Minute)} {
		for i, u := range users {
			if n := testing.AllocsPerRun(100, func() { ch.EvaluateUser(u, at) }); n != 0 {
				t.Errorf("user %d at %s: Evaluate allocates %.0f objects, want 0", i, at.Format(time.Kitchen), n)
			}
		}
	}
	var many []Rule
	for i := 0; i < 17; i++ {
		many = append(many, Rule{Priority: i % 3, Conds: []Cond{{Name: attr.NameRegion, Value: "999"}}, Effect: Accept})
	}
	if n := testing.AllocsPerRun(100, func() { Evaluate(ch.Attrs, many, userR100, now) }); n != 1 {
		t.Errorf("17-rule Evaluate allocates %.0f objects, want 1 (its order slice)", n)
	}
}
