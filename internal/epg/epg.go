// Package epg models the program schedule of a linearized broadcast
// channel and compiles per-program distribution rights into the channel
// attribute/policy mechanisms of §IV-A.
//
// The paper's motivating cases: "a broadcaster may not have secured the
// rights to distribute certain content over the Internet, thus
// necessitating certain programs be 'blacked out' during their air
// times" (§II), and per-event access ("the 'live' nature of broadcast
// events leads to the licensing of event accesses", §I). An operator
// maintains a Schedule; Compile turns it into exactly the attributes and
// prioritized rules the Channel Policy Manager distributes, honouring
// the §IV-C lead-time rule via Validate.
package epg

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"p2pdrm/internal/attr"
	"p2pdrm/internal/policy"
)

// Rights describes one program's Internet distribution rights.
type Rights int

// Program rights classes.
const (
	// RightsFree: distributable to the channel's whole region audience.
	RightsFree Rights = iota + 1
	// RightsBlackout: no Internet distribution during air time (§II).
	RightsBlackout
	// RightsPPV: only viewers who purchased the event package (§II).
	RightsPPV
)

// String names the rights class.
func (r Rights) String() string {
	switch r {
	case RightsFree:
		return "free"
	case RightsBlackout:
		return "blackout"
	case RightsPPV:
		return "ppv"
	default:
		return fmt.Sprintf("Rights(%d)", int(r))
	}
}

// Program is one scheduled broadcast.
type Program struct {
	Title  string
	Start  time.Time
	End    time.Time
	Rights Rights
	// Package names the purchase required when Rights == RightsPPV.
	Package string
}

// Schedule is a channel's program lineup.
type Schedule struct {
	ChannelID string
	Programs  []Program
}

// Validation errors.
var (
	ErrEmptyWindow   = errors.New("epg: program end not after start")
	ErrOverlap       = errors.New("epg: programs overlap")
	ErrMissingPkg    = errors.New("epg: ppv program without a package")
	ErrLeadTime      = errors.New("epg: restriction deployed with insufficient lead time")
	ErrUnknownRights = errors.New("epg: unknown rights class")
)

// Validate checks the schedule's internal consistency and — given the
// deployment time and the User Ticket lifetime — the §IV-C lead-time
// rule: a restriction (blackout or PPV gate) must be deployed at least
// one User Ticket lifetime before it starts, or already-issued tickets
// will outlive the policy change.
func (s *Schedule) Validate(deployAt time.Time, userTicketLifetime time.Duration) error {
	sorted := append([]Program(nil), s.Programs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })
	for i, p := range sorted {
		if !p.End.After(p.Start) {
			return fmt.Errorf("%w: %q", ErrEmptyWindow, p.Title)
		}
		switch p.Rights {
		case RightsFree, RightsBlackout, RightsPPV:
		default:
			return fmt.Errorf("%w: %q", ErrUnknownRights, p.Title)
		}
		if p.Rights == RightsPPV && p.Package == "" {
			return fmt.Errorf("%w: %q", ErrMissingPkg, p.Title)
		}
		if i > 0 && sorted[i-1].End.After(p.Start) {
			return fmt.Errorf("%w: %q and %q", ErrOverlap, sorted[i-1].Title, p.Title)
		}
		if p.Rights != RightsFree && p.Start.Before(deployAt.Add(userTicketLifetime)) {
			return fmt.Errorf("%w: %q starts %v after deployment, need ≥ %v",
				ErrLeadTime, p.Title, p.Start.Sub(deployAt), userTicketLifetime)
		}
	}
	return nil
}

// attrPPVWindow is the channel attribute name arming a PPV gate.
const attrPPVWindow = "PPVWindow"

// Compile produces the channel attributes and rules implementing the
// schedule's restrictions, to be appended to the channel's base
// attributes/rules (its regional availability in regions). now stamps
// utimes.
//
//   - RightsBlackout compiles to the §IV-A blackout recipe: a Region=ANY
//     attribute valid during the program plus a priority-100 REJECT.
//   - RightsPPV compiles to the same trick one level up: a PPVWindow=ANY
//     marker valid during the program arms a priority-100 REJECT that
//     matches everyone, while priority-110 ACCEPT rules let purchasers
//     (Subscription=<pkg>, within the channel's regions) through first.
func (s *Schedule) Compile(now time.Time, regions ...string) (attr.List, []policy.Rule) {
	var attrs attr.List
	var rules []policy.Rule
	for _, p := range s.Programs {
		switch p.Rights {
		case RightsBlackout:
			a, r := policy.Blackout(p.Start, p.End, 100, now)
			attrs = append(attrs, a)
			rules = append(rules, r)
		case RightsPPV:
			attrs = append(attrs,
				attr.Attribute{
					Name: attrPPVWindow, Value: attr.Any,
					STime: p.Start, ETime: p.End, UTime: now,
				},
				attr.Attribute{
					Name: attr.NameSubscription, Value: attr.Value(p.Package),
					STime: p.Start, ETime: p.End, UTime: now,
				},
			)
			for _, region := range regions {
				rules = append(rules, policy.Rule{
					Priority: 110,
					Conds: []policy.Cond{
						{Name: attrPPVWindow, Value: attr.Any},
						{Name: attr.NameRegion, Value: attr.Value(region)},
						{Name: attr.NameSubscription, Value: attr.Value(p.Package)},
					},
					Effect: policy.Accept,
				})
			}
			rules = append(rules, policy.Rule{
				Priority: 100,
				Conds:    []policy.Cond{{Name: attrPPVWindow, Value: attr.Any}},
				Effect:   policy.Reject,
			})
		}
	}
	return attrs, rules
}

// At returns the program on air at t, if any.
func (s *Schedule) At(t time.Time) (Program, bool) {
	for _, p := range s.Programs {
		if !t.Before(p.Start) && t.Before(p.End) {
			return p, true
		}
	}
	return Program{}, false
}
