// Package attr implements the attribute model of §IV-A/§IV-B: both users
// and channels carry attribute tuples
//
//	<attribute, value, stime, etime, utime>
//
// where stime/etime bound validity, utime (last-update time) propagates
// channel-lineup changes to clients, and a handful of special values
// (ANY, ALL, NONE, NULL) are defined globally.
package attr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"
)

// Value is an attribute value. Most values are opaque strings chosen by
// the service provider; the Special* constants have global meaning.
type Value string

// Globally defined special attribute values (§IV-A).
const (
	// Any matches every user when used as a required value in a policy
	// (no user is ever *assigned* the literal ANY).
	Any Value = "ANY"
	// All as a *user* attribute value satisfies any required value of
	// that attribute name (a wildcard grant).
	All Value = "ALL"
	// None as a required value matches users who lack a currently-valid
	// attribute of that name.
	None Value = "NONE"
)

// Well-known attribute names used by the DRM requirements (Table I).
const (
	NameNetAddr      = "NetAddr"
	NameRegion       = "Region"
	NameAS           = "AS"
	NameVersion      = "Version"
	NameSubscription = "Subscription"
)

// Attribute is one tuple. Zero STime/ETime/UTime mean "null" (unbounded /
// never updated), matching the paper's NULL timer values.
type Attribute struct {
	Name  string
	Value Value
	STime time.Time
	ETime time.Time
	UTime time.Time
}

// ValidAt reports whether the attribute is within its validity window.
func (a Attribute) ValidAt(t time.Time) bool {
	if !a.STime.IsZero() && t.Before(a.STime) {
		return false
	}
	if !a.ETime.IsZero() && !t.Before(a.ETime) {
		return false
	}
	return true
}

// String renders the tuple for logs.
func (a Attribute) String() string {
	f := func(t time.Time) string {
		if t.IsZero() {
			return "null"
		}
		return t.Format(time.RFC3339)
	}
	return fmt.Sprintf("<%s=%s stime=%s etime=%s utime=%s>",
		a.Name, a.Value, f(a.STime), f(a.ETime), f(a.UTime))
}

// List is an attribute set. A name may appear multiple times with
// different values (e.g. several Subscription attributes).
type List []Attribute

// First returns the first attribute with the name, if any.
func (l List) First(name string) (Attribute, bool) {
	for _, a := range l {
		if a.Name == name {
			return a, true
		}
	}
	return Attribute{}, false
}

// SoonestExpiry returns the earliest non-null ETime in the list (zero if
// none). The User Manager caps ticket lifetime by it (§IV-B).
func (l List) SoonestExpiry() time.Time {
	var soonest time.Time
	for _, a := range l {
		if a.ETime.IsZero() {
			continue
		}
		if soonest.IsZero() || a.ETime.Before(soonest) {
			soonest = a.ETime
		}
	}
	return soonest
}

// Clone deep-copies the list.
func (l List) Clone() List {
	return append(List(nil), l...)
}

// Satisfies reports whether this (user) attribute list satisfies a
// required name/value at time t under the special-value rules:
//
//   - required Any: always satisfied;
//   - required None: satisfied iff the user has NO valid attribute of
//     that name;
//   - otherwise: the user needs a valid attribute of that name whose
//     value equals the requirement or is the wildcard All.
//
// It reads the list in place and allocates nothing.
func (l List) Satisfies(name string, required Value, t time.Time) bool {
	if required == Any {
		return true
	}
	for _, a := range l {
		if a.Name != name || !a.ValidAt(t) {
			continue
		}
		if required == None {
			return false
		}
		if a.Value == required || a.Value == All {
			return true
		}
	}
	return required == None
}

// String renders the list compactly.
func (l List) String() string {
	parts := make([]string, len(l))
	for i, a := range l {
		parts[i] = string(a.Name) + "=" + string(a.Value)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// --- Binary encoding (used inside tickets and wire messages) ---

var errTruncated = errors.New("attr: truncated encoding")

// maxListLen bounds decoded list sizes defensively.
const maxListLen = 4096

// appendAttribute serializes a onto buf.
func appendAttribute(buf []byte, a Attribute) []byte {
	buf = appendString(buf, a.Name)
	buf = appendString(buf, string(a.Value))
	buf = appendTime(buf, a.STime)
	buf = appendTime(buf, a.ETime)
	buf = appendTime(buf, a.UTime)
	return buf
}

// decodeAttribute parses one attribute, returning the remainder.
func decodeAttribute(b []byte) (Attribute, []byte, error) {
	var a Attribute
	var err error
	var s string
	if s, b, err = decodeString(b); err != nil {
		return a, nil, err
	}
	a.Name = s
	if s, b, err = decodeString(b); err != nil {
		return a, nil, err
	}
	a.Value = Value(s)
	if a.STime, b, err = decodeTime(b); err != nil {
		return a, nil, err
	}
	if a.ETime, b, err = decodeTime(b); err != nil {
		return a, nil, err
	}
	if a.UTime, b, err = decodeTime(b); err != nil {
		return a, nil, err
	}
	return a, b, nil
}

// EncodedLen returns the exact byte size AppendList produces for l, so
// callers can preallocate buffers with no growth reallocations.
func (l List) EncodedLen() int {
	n := 4
	for _, a := range l {
		n += 2 + len(a.Name) + 2 + len(a.Value) + 24
	}
	return n
}

// AppendList serializes l (count-prefixed) onto buf.
func AppendList(buf []byte, l List) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(l)))
	for _, a := range l {
		buf = appendAttribute(buf, a)
	}
	return buf
}

// DecodeList parses an AppendList encoding, returning the remainder.
func DecodeList(b []byte) (List, []byte, error) {
	if len(b) < 4 {
		return nil, nil, errTruncated
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if n > maxListLen {
		return nil, nil, fmt.Errorf("attr: list length %d exceeds limit", n)
	}
	out := make(List, 0, n)
	for i := uint32(0); i < n; i++ {
		var a Attribute
		var err error
		if a, b, err = decodeAttribute(b); err != nil {
			return nil, nil, err
		}
		out = append(out, a)
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

func appendTime(buf []byte, t time.Time) []byte {
	if t.IsZero() {
		return binary.BigEndian.AppendUint64(buf, 0)
	}
	return binary.BigEndian.AppendUint64(buf, uint64(t.UnixNano()))
}

func decodeTime(b []byte) (time.Time, []byte, error) {
	if len(b) < 8 {
		return time.Time{}, nil, errTruncated
	}
	v := binary.BigEndian.Uint64(b)
	b = b[8:]
	if v == 0 {
		return time.Time{}, b, nil
	}
	return time.Unix(0, int64(v)).UTC(), b, nil
}
