// Package policy implements channel access policies (§IV-A): each channel
// carries attributes and a list of priority-ordered rules; access
// authorization "amounts to securely evaluating the policies of a channel
// given the attributes of a user and those of the channel."
//
// Rule semantics (matching Fig. 2 of the paper):
//
//   - A rule is a conjunction of conditions, each naming a channel
//     attribute value the user must satisfy.
//   - A rule is *armed* at time t only if the channel itself holds a
//     currently-valid attribute for every condition — this is what makes
//     blackout windows work: the Region=ANY attribute is valid only during
//     the blackout, so the high-priority REJECT rule arms only then.
//   - Higher-priority rules override lower ones; the first armed rule
//     whose conditions the user satisfies decides ACCEPT or REJECT.
//   - If no armed rule matches, access is rejected (default deny).
package policy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"p2pdrm/internal/attr"
)

// Effect is a rule outcome.
type Effect int

// Rule effects.
const (
	Accept Effect = iota + 1
	Reject
)

// String renders the effect.
func (e Effect) String() string {
	switch e {
	case Accept:
		return "ACCEPT"
	case Reject:
		return "REJECT"
	default:
		return fmt.Sprintf("Effect(%d)", int(e))
	}
}

// Cond requires the user to satisfy one channel attribute value.
type Cond struct {
	Name  string
	Value attr.Value
}

// Rule is one prioritized policy line, e.g.
// "Priority 50: Region=100 & Subscription=101, Return ACCEPT".
type Rule struct {
	Priority int
	Conds    []Cond
	Effect   Effect
}

// String renders the rule like the paper's figures.
func (r Rule) String() string {
	s := fmt.Sprintf("Priority %d:", r.Priority)
	for i, c := range r.Conds {
		if i > 0 {
			s += " &"
		}
		s += fmt.Sprintf(" %s=%s", c.Name, c.Value)
	}
	return fmt.Sprintf("%s, Return %s", s, r.Effect)
}

// Decision is the result of an evaluation.
type Decision struct {
	Effect Effect
	// RuleIndex is the index of the deciding rule in the channel's rule
	// list, or -1 when the default deny applied.
	RuleIndex int
}

// Evaluate applies the channel's rules to the user's attributes at time t.
// It allocates nothing for a channel of up to 16 rules.
func Evaluate(chAttrs attr.List, rules []Rule, user attr.List, t time.Time) Decision {
	// Stable selection: highest priority first, ties by list order.
	var stack [16]int
	order := stack[:0]
	if len(rules) > len(stack) {
		order = make([]int, 0, len(rules))
	}
	for i := range rules {
		order = append(order, i)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && rules[order[j]].Priority > rules[order[j-1]].Priority; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, idx := range order {
		r := rules[idx]
		if !armed(chAttrs, r, t) {
			continue
		}
		if matches(user, r, t) {
			return Decision{Effect: r.Effect, RuleIndex: idx}
		}
	}
	return Decision{Effect: Reject, RuleIndex: -1}
}

// armed reports whether the channel holds a valid attribute for every
// condition of the rule at time t.
func armed(chAttrs attr.List, r Rule, t time.Time) bool {
	for _, c := range r.Conds {
		if !holds(chAttrs, c, t) {
			return false
		}
	}
	return true
}

// holds reports whether the channel has an attribute of the condition's
// exact name and value valid at t.
func holds(chAttrs attr.List, c Cond, t time.Time) bool {
	for _, a := range chAttrs {
		if a.Name == c.Name && a.Value == c.Value && a.ValidAt(t) {
			return true
		}
	}
	return false
}

// matches reports whether the user satisfies every condition.
func matches(user attr.List, r Rule, t time.Time) bool {
	for _, c := range r.Conds {
		if !user.Satisfies(c.Name, c.Value, t) {
			return false
		}
	}
	return true
}

// GrantWindowEnd bounds how long an Accept decision made at time t keeps
// holding: the earliest ETime at which any condition of the deciding rule
// provably stops being satisfied — either because every channel attribute
// arming it expires, or because every user attribute satisfying it does.
// Zero means unbounded (no expiring attribute limits the grant).
//
// Ticket issuers use this to cap ticket lifetime so a ticket issued just
// before a rights window closes cannot outlive the rights that granted it
// (e.g. a PPV purchase expiring mid-ticket). The bound is conservative in
// one direction only: it considers attributes valid at t, so a rule that
// would *re-arm* later (future STime) or a higher-priority REJECT rule
// arming later (a blackout) does not extend or shrink it — those are
// enforced by the lead-time deployment rule and by re-evaluation at
// renewal, not by this cap.
func GrantWindowEnd(c *Channel, d Decision, user attr.List, t time.Time) time.Time {
	if d.Effect != Accept || d.RuleIndex < 0 || d.RuleIndex >= len(c.Rules) {
		return time.Time{}
	}
	var end time.Time
	for _, cond := range c.Rules[d.RuleIndex].Conds {
		// Channel side: the rule stays armed while SOME valid channel
		// attribute carries the condition's value, so the bound is the
		// latest ETime among them (zero = one of them never expires).
		chEnd, chUnbounded := latestExpiry(c.Attrs, cond.Name, cond.Value, t, false)
		if !chUnbounded {
			end = minNonZero(end, chEnd)
		}
		// User side: Any needs no user attribute; None holds while the
		// user has no valid attribute of the name (a future-dated grant
		// could break it, which renewal re-evaluation catches).
		if cond.Value == attr.Any || cond.Value == attr.None {
			continue
		}
		userEnd, userUnbounded := latestExpiry(user, cond.Name, cond.Value, t, true)
		if !userUnbounded {
			end = minNonZero(end, userEnd)
		}
	}
	return end
}

// latestExpiry scans attributes of the name valid at t that carry the
// value (wildcard All also matches when allowAll), returning the latest
// ETime; unbounded is true when any such attribute never expires.
func latestExpiry(l attr.List, name string, v attr.Value, t time.Time, allowAll bool) (time.Time, bool) {
	var latest time.Time
	for _, a := range l {
		if a.Name != name || !a.ValidAt(t) {
			continue
		}
		if a.Value != v && !(allowAll && a.Value == attr.All) {
			continue
		}
		if a.ETime.IsZero() {
			return time.Time{}, true
		}
		if a.ETime.After(latest) {
			latest = a.ETime
		}
	}
	return latest, false
}

// minNonZero treats the zero time as "no bound".
func minNonZero(a, b time.Time) time.Time {
	if a.IsZero() {
		return b
	}
	if b.IsZero() || a.Before(b) {
		return a
	}
	return b
}

// Blackout returns the channel attribute + rule pair implementing the
// paper's blackout recipe (§IV-A): a Region=ANY attribute valid only in
// [start, end) and a high-priority rule rejecting everyone while armed.
func Blackout(start, end time.Time, priority int, updated time.Time) (attr.Attribute, Rule) {
	a := attr.Attribute{
		Name:  attr.NameRegion,
		Value: attr.Any,
		STime: start,
		ETime: end,
		UTime: updated,
	}
	r := Rule{
		Priority: priority,
		Conds:    []Cond{{Name: attr.NameRegion, Value: attr.Any}},
		Effect:   Reject,
	}
	return a, r
}

// Channel is the shared channel description distributed in the Channel
// List: identity, rights attributes, policies, and (per §V) the partition
// plus the address and public key of the Channel Manager serving it.
type Channel struct {
	ID        string
	Name      string
	Attrs     attr.List
	Rules     []Rule
	Partition string
	// MgrAddr/MgrKey let the client reach the right Channel Manager when
	// multiple Channel Listing Partitions exist (§V).
	MgrAddr string
	MgrKey  []byte
}

// EvaluateUser decides whether a user may access the channel at t.
func (c *Channel) EvaluateUser(user attr.List, t time.Time) Decision {
	return Evaluate(c.Attrs, c.Rules, user, t)
}

// TouchAttrs sets utime on every channel attribute to now — the Channel
// Policy Manager does this whenever the channel is modified (§IV-A).
func (c *Channel) TouchAttrs(now time.Time) {
	for i := range c.Attrs {
		c.Attrs[i].UTime = now
	}
}

// Clone deep-copies the channel.
func (c *Channel) Clone() *Channel {
	out := *c
	out.Attrs = c.Attrs.Clone()
	out.Rules = append([]Rule(nil), c.Rules...)
	for i := range out.Rules {
		out.Rules[i].Conds = append([]Cond(nil), c.Rules[i].Conds...)
	}
	out.MgrKey = append([]byte(nil), c.MgrKey...)
	return &out
}

// --- Binary encoding ---

var errTruncated = errors.New("policy: truncated encoding")

const (
	maxConds    = 256
	maxRules    = 1024
	maxChannels = 65536
)

// appendRule serializes r onto buf.
func appendRule(buf []byte, r Rule) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(r.Priority)))
	buf = append(buf, byte(r.Effect))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Conds)))
	for _, c := range r.Conds {
		buf = appendString(buf, c.Name)
		buf = appendString(buf, string(c.Value))
	}
	return buf
}

// decodeRule parses one rule, returning the remainder.
func decodeRule(b []byte) (Rule, []byte, error) {
	var r Rule
	if len(b) < 7 {
		return r, nil, errTruncated
	}
	r.Priority = int(int32(binary.BigEndian.Uint32(b)))
	r.Effect = Effect(b[4])
	n := int(binary.BigEndian.Uint16(b[5:7]))
	b = b[7:]
	if n > maxConds {
		return r, nil, fmt.Errorf("policy: %d conditions exceeds limit", n)
	}
	if r.Effect != Accept && r.Effect != Reject {
		return r, nil, fmt.Errorf("policy: unknown effect %d", r.Effect)
	}
	r.Conds = make([]Cond, 0, n)
	for i := 0; i < n; i++ {
		var name, val string
		var err error
		if name, b, err = decodeString(b); err != nil {
			return r, nil, err
		}
		if val, b, err = decodeString(b); err != nil {
			return r, nil, err
		}
		r.Conds = append(r.Conds, Cond{Name: name, Value: attr.Value(val)})
	}
	return r, b, nil
}

// appendChannel serializes c onto buf.
func appendChannel(buf []byte, c *Channel) []byte {
	buf = appendString(buf, c.ID)
	buf = appendString(buf, c.Name)
	buf = attr.AppendList(buf, c.Attrs)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(c.Rules)))
	for _, r := range c.Rules {
		buf = appendRule(buf, r)
	}
	buf = appendString(buf, c.Partition)
	buf = appendString(buf, c.MgrAddr)
	buf = appendString(buf, string(c.MgrKey))
	return buf
}

// decodeChannel parses one channel, returning the remainder.
func decodeChannel(b []byte) (*Channel, []byte, error) {
	c := &Channel{}
	var err error
	if c.ID, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	if c.Name, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	if c.Attrs, b, err = attr.DecodeList(b); err != nil {
		return nil, nil, err
	}
	if len(b) < 2 {
		return nil, nil, errTruncated
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if n > maxRules {
		return nil, nil, fmt.Errorf("policy: %d rules exceeds limit", n)
	}
	c.Rules = make([]Rule, 0, n)
	for i := 0; i < n; i++ {
		var r Rule
		if r, b, err = decodeRule(b); err != nil {
			return nil, nil, err
		}
		c.Rules = append(c.Rules, r)
	}
	if c.Partition, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	if c.MgrAddr, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	var mk string
	if mk, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	if mk != "" {
		c.MgrKey = []byte(mk)
	}
	return c, b, nil
}

// encodedLen is the exact size appendChannel writes for c.
func (c *Channel) encodedLen() int {
	n := 2 + len(c.ID) + 2 + len(c.Name) + c.Attrs.EncodedLen() + 2
	for _, r := range c.Rules {
		n += 4 + 1 + 2
		for _, cond := range r.Conds {
			n += 2 + len(cond.Name) + 2 + len(cond.Value)
		}
	}
	return n + 2 + len(c.Partition) + 2 + len(c.MgrAddr) + 2 + len(c.MgrKey)
}

// AppendChannels serializes a channel list (count-prefixed). The output
// is sized up front, so appending to a nil buf is one exact allocation.
func AppendChannels(buf []byte, chs []*Channel) []byte {
	n := 4
	for _, c := range chs {
		n += c.encodedLen()
	}
	if cap(buf)-len(buf) < n {
		buf = append(make([]byte, 0, len(buf)+n), buf...)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(chs)))
	for _, c := range chs {
		buf = appendChannel(buf, c)
	}
	return buf
}

// decodeChannels parses an AppendChannels encoding.
func decodeChannels(b []byte) ([]*Channel, []byte, error) {
	if len(b) < 4 {
		return nil, nil, errTruncated
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if n > maxChannels {
		return nil, nil, fmt.Errorf("policy: %d channels exceeds limit", n)
	}
	out := make([]*Channel, 0, n)
	for i := uint32(0); i < n; i++ {
		var c *Channel
		var err error
		if c, b, err = decodeChannel(b); err != nil {
			return nil, nil, err
		}
		out = append(out, c)
	}
	return out, b, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func decodeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, errTruncated
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, errTruncated
	}
	return string(b[:n]), b[n:], nil
}
