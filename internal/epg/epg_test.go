package epg

import (
	"errors"
	"testing"
	"time"

	"p2pdrm/internal/attr"
	"p2pdrm/internal/policy"
)

var (
	t0     = time.Date(2008, 7, 10, 0, 0, 0, 0, time.UTC)
	ticket = 10 * time.Minute // user ticket lifetime for lead-time checks
)

func prog(title string, startH, endH int, r Rights, pkg string) Program {
	return Program{
		Title:  title,
		Start:  t0.Add(time.Duration(startH) * time.Hour),
		End:    t0.Add(time.Duration(endH) * time.Hour),
		Rights: r, Package: pkg,
	}
}

// baseChannel is free in region 100.
func baseChannel() *policy.Channel {
	return &policy.Channel{
		ID:    "chA",
		Attrs: attr.List{{Name: attr.NameRegion, Value: "100"}},
		Rules: []policy.Rule{{
			Priority: 50,
			Conds:    []policy.Cond{{Name: attr.NameRegion, Value: "100"}},
			Effect:   policy.Accept,
		}},
	}
}

func compileOnto(ch *policy.Channel, s *Schedule) {
	attrs, rules := s.Compile(t0, "100")
	ch.Attrs = append(ch.Attrs, attrs...)
	ch.Rules = append(ch.Rules, rules...)
}

func TestValidateAcceptsSaneSchedule(t *testing.T) {
	s := &Schedule{ChannelID: "chA", Programs: []Program{
		prog("morning show", 8, 10, RightsFree, ""),
		prog("the match", 12, 14, RightsBlackout, ""),
		prog("fight night", 20, 22, RightsPPV, "ppv-1"),
	}}
	if err := s.Validate(t0, ticket); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		s    *Schedule
		want error
	}{
		{"empty window", &Schedule{Programs: []Program{prog("x", 5, 5, RightsFree, "")}}, ErrEmptyWindow},
		{"overlap", &Schedule{Programs: []Program{
			prog("a", 8, 11, RightsFree, ""), prog("b", 10, 12, RightsFree, ""),
		}}, ErrOverlap},
		{"ppv no package", &Schedule{Programs: []Program{prog("x", 5, 6, RightsPPV, "")}}, ErrMissingPkg},
		{"unknown rights", &Schedule{Programs: []Program{{
			Title: "x", Start: t0, End: t0.Add(time.Hour), Rights: Rights(9),
		}}}, ErrUnknownRights},
	}
	for _, c := range cases {
		if err := c.s.Validate(t0, ticket); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestValidateLeadTimeRule(t *testing.T) {
	// A blackout starting 5 minutes after deployment with 10-minute user
	// tickets violates §IV-C.
	s := &Schedule{Programs: []Program{{
		Title: "late blackout", Start: t0.Add(5 * time.Minute),
		End: t0.Add(time.Hour), Rights: RightsBlackout,
	}}}
	if err := s.Validate(t0, ticket); !errors.Is(err, ErrLeadTime) {
		t.Fatalf("err = %v, want ErrLeadTime", err)
	}
	// A free program needs no lead time.
	s2 := &Schedule{Programs: []Program{{
		Title: "soon free", Start: t0.Add(time.Minute),
		End: t0.Add(time.Hour), Rights: RightsFree,
	}}}
	if err := s2.Validate(t0, ticket); err != nil {
		t.Fatalf("free program tripped lead time: %v", err)
	}
}

// TestValidateLeadTimeBoundary pins the §IV-C rule at its exact edge: a
// restriction starting precisely one User Ticket lifetime after
// deployment is the earliest legal start — a second less and tickets
// issued at deployment outlive the policy change.
func TestValidateLeadTimeBoundary(t *testing.T) {
	prog := func(start time.Time, r Rights) *Schedule {
		p := Program{Title: "edge", Start: start, End: start.Add(time.Hour), Rights: r}
		if r == RightsPPV {
			p.Package = "evt"
		}
		return &Schedule{Programs: []Program{p}}
	}
	for _, r := range []Rights{RightsBlackout, RightsPPV} {
		if err := prog(t0.Add(ticket), r).Validate(t0, ticket); err != nil {
			t.Errorf("%v exactly at deploy+lifetime rejected: %v", r, err)
		}
		if err := prog(t0.Add(ticket-time.Second), r).Validate(t0, ticket); !errors.Is(err, ErrLeadTime) {
			t.Errorf("%v one second inside the lifetime: err = %v, want ErrLeadTime", r, err)
		}
		if err := prog(t0.Add(ticket+time.Second), r).Validate(t0, ticket); err != nil {
			t.Errorf("%v one second past the boundary rejected: %v", r, err)
		}
	}
}

func TestCompileBlackoutBehaviour(t *testing.T) {
	ch := baseChannel()
	compileOnto(ch, &Schedule{ChannelID: "chA", Programs: []Program{
		prog("no-internet-rights match", 12, 14, RightsBlackout, ""),
	}})
	viewer := attr.List{{Name: attr.NameRegion, Value: "100"}}
	if d := ch.EvaluateUser(viewer, t0.Add(11*time.Hour)); d.Effect != policy.Accept {
		t.Fatalf("before program: %+v", d)
	}
	if d := ch.EvaluateUser(viewer, t0.Add(13*time.Hour)); d.Effect != policy.Reject {
		t.Fatalf("during blackout program: %+v", d)
	}
	if d := ch.EvaluateUser(viewer, t0.Add(15*time.Hour)); d.Effect != policy.Accept {
		t.Fatalf("after program: %+v", d)
	}
}

func TestCompilePPVBehaviour(t *testing.T) {
	ch := baseChannel()
	compileOnto(ch, &Schedule{ChannelID: "chA", Programs: []Program{
		prog("fight night", 20, 22, RightsPPV, "ppv-1"),
	}})
	free := attr.List{{Name: attr.NameRegion, Value: "100"}}
	buyer := attr.List{
		{Name: attr.NameRegion, Value: "100"},
		{Name: attr.NameSubscription, Value: "ppv-1",
			STime: t0.Add(20 * time.Hour), ETime: t0.Add(22 * time.Hour)},
	}
	otherSub := attr.List{
		{Name: attr.NameRegion, Value: "100"},
		{Name: attr.NameSubscription, Value: "gold"},
	}
	outOfRegionBuyer := attr.List{
		{Name: attr.NameRegion, Value: "200"},
		{Name: attr.NameSubscription, Value: "ppv-1",
			STime: t0.Add(20 * time.Hour), ETime: t0.Add(22 * time.Hour)},
	}
	during := t0.Add(21 * time.Hour)
	before := t0.Add(19 * time.Hour)

	if d := ch.EvaluateUser(free, before); d.Effect != policy.Accept {
		t.Fatalf("free viewer before event: %+v", d)
	}
	if d := ch.EvaluateUser(free, during); d.Effect != policy.Reject {
		t.Fatalf("free viewer during event: %+v", d)
	}
	if d := ch.EvaluateUser(otherSub, during); d.Effect != policy.Reject {
		t.Fatalf("unrelated subscriber during event: %+v", d)
	}
	if d := ch.EvaluateUser(buyer, during); d.Effect != policy.Accept {
		t.Fatalf("buyer during event: %+v", d)
	}
	if d := ch.EvaluateUser(outOfRegionBuyer, during); d.Effect != policy.Reject {
		t.Fatalf("out-of-region buyer during event: %+v", d)
	}
	if d := ch.EvaluateUser(free, t0.Add(23*time.Hour)); d.Effect != policy.Accept {
		t.Fatalf("free viewer after event: %+v", d)
	}
}

func TestCompileSurvivesWireRoundTrip(t *testing.T) {
	// The compiled channel must keep its behaviour through the Channel
	// List codec (it travels to Channel Managers and clients).
	ch := baseChannel()
	compileOnto(ch, &Schedule{ChannelID: "chA", Programs: []Program{
		prog("fight night", 20, 22, RightsPPV, "ppv-1"),
	}})
	chs, rest, err := policy.DecodeChannels(policy.AppendChannels(nil, []*policy.Channel{ch}))
	if err != nil || len(rest) != 0 || len(chs) != 1 {
		t.Fatalf("codec: %v", err)
	}
	dec := chs[0]
	buyer := attr.List{
		{Name: attr.NameRegion, Value: "100"},
		{Name: attr.NameSubscription, Value: "ppv-1"},
	}
	if d := dec.EvaluateUser(buyer, t0.Add(21*time.Hour)); d.Effect != policy.Accept {
		t.Fatalf("decoded channel lost PPV behaviour: %+v", d)
	}
}

func TestAt(t *testing.T) {
	s := &Schedule{Programs: []Program{
		prog("a", 8, 10, RightsFree, ""),
		prog("b", 10, 12, RightsBlackout, ""),
	}}
	if p, ok := s.At(t0.Add(9 * time.Hour)); !ok || p.Title != "a" {
		t.Fatalf("At(9h) = %+v %v", p, ok)
	}
	if p, ok := s.At(t0.Add(10 * time.Hour)); !ok || p.Title != "b" {
		t.Fatalf("At(10h) = %+v %v (boundary belongs to the next program)", p, ok)
	}
	if _, ok := s.At(t0.Add(13 * time.Hour)); ok {
		t.Fatal("At(13h) found a program in dead air")
	}
}

func TestRightsString(t *testing.T) {
	if RightsFree.String() != "free" || RightsBlackout.String() != "blackout" ||
		RightsPPV.String() != "ppv" || Rights(9).String() == "" {
		t.Fatal("rights strings wrong")
	}
}
