package attr

import (
	"testing"
	"testing/quick"
	"time"
)

var (
	t0 = time.Date(2008, 7, 10, 20, 0, 0, 0, time.UTC) // "07/10 8pm"
	t1 = time.Date(2008, 7, 10, 21, 0, 0, 0, time.UTC) // "07/10 9pm"
)

func TestValidAtUnbounded(t *testing.T) {
	a := Attribute{Name: NameRegion, Value: "100"}
	if !a.ValidAt(t0) || !a.ValidAt(time.Time{}.Add(time.Hour)) {
		t.Fatal("unbounded attribute not always valid")
	}
}

func TestValidAtWindow(t *testing.T) {
	a := Attribute{Name: NameRegion, Value: Any, STime: t0, ETime: t1}
	cases := []struct {
		at   time.Time
		want bool
	}{
		{t0.Add(-time.Second), false},
		{t0, true}, // inclusive start
		{t0.Add(30 * time.Minute), true},
		{t1, false}, // exclusive end
		{t1.Add(time.Second), false},
	}
	for _, c := range cases {
		if got := a.ValidAt(c.at); got != c.want {
			t.Errorf("ValidAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestValidAtOnlyStart(t *testing.T) {
	a := Attribute{Name: "X", Value: "1", STime: t0}
	if a.ValidAt(t0.Add(-time.Second)) {
		t.Fatal("valid before stime")
	}
	if !a.ValidAt(t1.AddDate(1, 0, 0)) {
		t.Fatal("invalid long after stime with null etime")
	}
}

// TestValidAtBoundaryInstants pins the exact semantics of every time
// field at its boundary instant: STime inclusive, ETime exclusive, UTime
// (the issuance stamp) never part of the validity decision, and the
// degenerate STime==ETime window empty even at its own instant.
func TestValidAtBoundaryInstants(t *testing.T) {
	cases := []struct {
		name string
		a    Attribute
		at   time.Time
		want bool
	}{
		{"stime nanosecond before", Attribute{STime: t0}, t0.Add(-time.Nanosecond), false},
		{"stime exact instant is valid", Attribute{STime: t0}, t0, true},
		{"stime nanosecond after", Attribute{STime: t0}, t0.Add(time.Nanosecond), true},
		{"etime nanosecond before", Attribute{ETime: t1}, t1.Add(-time.Nanosecond), true},
		{"etime exact instant is invalid", Attribute{ETime: t1}, t1, false},
		{"etime nanosecond after", Attribute{ETime: t1}, t1.Add(time.Nanosecond), false},
		{"window covers exactly [stime,etime)", Attribute{STime: t0, ETime: t1}, t1.Add(-time.Nanosecond), true},
		{"empty window invalid at its own instant", Attribute{STime: t0, ETime: t0}, t0, false},
		{"utime in the future does not gate validity", Attribute{UTime: t1}, t0, true},
		{"utime in the past does not gate validity", Attribute{UTime: t0}, t1, true},
		{"utime does not tighten a window", Attribute{STime: t0, ETime: t1, UTime: t1.Add(time.Hour)}, t0, true},
		{"utime does not extend a window", Attribute{STime: t0, ETime: t1, UTime: t0.Add(-time.Hour)}, t1, false},
	}
	for _, c := range cases {
		if got := c.a.ValidAt(c.at); got != c.want {
			t.Errorf("%s: ValidAt = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFirst(t *testing.T) {
	l := List{
		{Name: NameRegion, Value: "100"},
		{Name: NameSubscription, Value: "101"},
		{Name: NameSubscription, Value: "102"},
	}
	if a, ok := l.First(NameSubscription); !ok || a.Value != "101" {
		t.Fatalf("First(Subscription) = %v %v, want the first of two", a, ok)
	}
	if a, ok := l.First(NameRegion); !ok || a.Value != "100" {
		t.Fatalf("First(Region) = %v %v", a, ok)
	}
	if _, ok := l.First("Missing"); ok {
		t.Fatal("First found a missing name")
	}
}

func TestSoonestExpiry(t *testing.T) {
	l := List{
		{Name: "A", Value: "1"}, // null etime
		{Name: "B", Value: "2", ETime: t1},
		{Name: "C", Value: "3", ETime: t0},
	}
	if got := l.SoonestExpiry(); !got.Equal(t0) {
		t.Fatalf("SoonestExpiry = %v, want %v", got, t0)
	}
	var empty List
	if !empty.SoonestExpiry().IsZero() {
		t.Fatal("empty list has non-zero soonest expiry")
	}
}

func TestSatisfiesExact(t *testing.T) {
	u := List{{Name: NameRegion, Value: "100"}}
	if !u.Satisfies(NameRegion, "100", t0) {
		t.Fatal("exact match failed")
	}
	if u.Satisfies(NameRegion, "101", t0) {
		t.Fatal("mismatched value satisfied")
	}
	if u.Satisfies(NameSubscription, "101", t0) {
		t.Fatal("missing attribute satisfied")
	}
}

func TestSatisfiesAny(t *testing.T) {
	// ANY as a required value matches every user — the blackout
	// mechanism pairs it with a REJECT policy (§IV-A, Fig 2).
	var empty List
	if !empty.Satisfies(NameRegion, Any, t0) {
		t.Fatal("ANY did not match a user without the attribute")
	}
	u := List{{Name: NameRegion, Value: "100"}}
	if !u.Satisfies(NameRegion, Any, t0) {
		t.Fatal("ANY did not match a concrete user value")
	}
}

func TestSatisfiesNone(t *testing.T) {
	u := List{{Name: NameSubscription, Value: "101", ETime: t0}}
	// Before expiry the user has the attribute → NONE unsatisfied.
	if u.Satisfies(NameSubscription, None, t0.Add(-time.Hour)) {
		t.Fatal("NONE matched a user holding the attribute")
	}
	// After expiry → NONE satisfied.
	if !u.Satisfies(NameSubscription, None, t0.Add(time.Hour)) {
		t.Fatal("NONE did not match after the attribute expired")
	}
}

func TestSatisfiesAllWildcardUserValue(t *testing.T) {
	u := List{{Name: NameSubscription, Value: All}}
	if !u.Satisfies(NameSubscription, "premium-9", t0) {
		t.Fatal("user ALL did not satisfy a concrete requirement")
	}
}

func TestSatisfiesRespectsValidity(t *testing.T) {
	u := List{{Name: NameSubscription, Value: "101", ETime: t0}}
	if u.Satisfies(NameSubscription, "101", t0.Add(time.Minute)) {
		t.Fatal("expired subscription satisfied a requirement")
	}
}

// TestSatisfiesReadsEveryMatch: invalid attributes of the name and
// attributes of other names are skipped wherever they sit in the list,
// and the in-place scan allocates nothing.
func TestSatisfiesReadsEveryMatch(t *testing.T) {
	u := List{
		{Name: NameSubscription, Value: "101", ETime: t0}, // expired at t1
		{Name: NameRegion, Value: "102"},
		{Name: NameSubscription, Value: "102", STime: t1.Add(time.Hour)}, // not yet valid
		{Name: NameSubscription, Value: "103"},
	}
	for _, c := range []struct {
		required Value
		want     bool
	}{{"101", false}, {"102", false}, {"103", true}, {None, false}, {Any, true}} {
		if got := u.Satisfies(NameSubscription, c.required, t1); got != c.want {
			t.Errorf("Satisfies(Subscription=%s) = %v, want %v", c.required, got, c.want)
		}
	}
	if !u[:3].Satisfies(NameSubscription, None, t1) {
		t.Fatal("NONE unsatisfied with only invalid attributes of the name")
	}
	if n := testing.AllocsPerRun(100, func() { u.Satisfies(NameSubscription, "103", t1) }); n != 0 {
		t.Fatalf("Satisfies allocates %.0f objects, want 0", n)
	}
}

func TestEncodeDecodeAttribute(t *testing.T) {
	a := Attribute{Name: NameRegion, Value: "100", STime: t0, ETime: t1, UTime: t0}
	buf := appendAttribute(nil, a)
	dec, rest, err := decodeAttribute(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d leftover bytes", len(rest))
	}
	if dec.Name != a.Name || dec.Value != a.Value ||
		!dec.STime.Equal(a.STime) || !dec.ETime.Equal(a.ETime) || !dec.UTime.Equal(a.UTime) {
		t.Fatalf("decode = %v, want %v", dec, a)
	}
}

func TestEncodeDecodeListRoundTrip(t *testing.T) {
	l := List{
		{Name: NameNetAddr, Value: "r1.as100.h7"},
		{Name: NameRegion, Value: "100", UTime: t0},
		{Name: NameSubscription, Value: "101", STime: t0, ETime: t1},
	}
	buf := AppendList(nil, l)
	dec, rest, err := DecodeList(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || len(dec) != len(l) {
		t.Fatalf("decode len=%d rest=%d", len(dec), len(rest))
	}
	for i := range l {
		if dec[i].Name != l[i].Name || dec[i].Value != l[i].Value {
			t.Fatalf("item %d = %v, want %v", i, dec[i], l[i])
		}
	}
}

func TestDecodeListTruncated(t *testing.T) {
	l := List{{Name: "A", Value: "1"}}
	buf := AppendList(nil, l)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeList(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeListLengthBomb(t *testing.T) {
	buf := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := DecodeList(buf); err == nil {
		t.Fatal("absurd list length accepted")
	}
}

func TestZeroTimeIsNullInEncoding(t *testing.T) {
	a := Attribute{Name: "A", Value: "1"}
	dec, _, err := decodeAttribute(appendAttribute(nil, a))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.STime.IsZero() || !dec.ETime.IsZero() || !dec.UTime.IsZero() {
		t.Fatal("null times did not survive round trip")
	}
}

// Property: encode/decode round-trips arbitrary attribute lists.
func TestListRoundTripProperty(t *testing.T) {
	f := func(names []string, vals []string, stimes []int64) bool {
		var l List
		n := len(names)
		if len(vals) < n {
			n = len(vals)
		}
		if len(stimes) < n {
			n = len(stimes)
		}
		for i := 0; i < n; i++ {
			var st time.Time
			if stimes[i] > 0 {
				st = time.Unix(0, stimes[i]%1e18).UTC()
			}
			l = append(l, Attribute{Name: names[i], Value: Value(vals[i]), STime: st})
		}
		dec, rest, err := DecodeList(AppendList(nil, l))
		if err != nil || len(rest) != 0 || len(dec) != len(l) {
			return false
		}
		for i := range l {
			if dec[i].Name != l[i].Name || dec[i].Value != l[i].Value || !dec[i].STime.Equal(l[i].STime) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
