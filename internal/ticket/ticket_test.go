package ticket

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"p2pdrm/internal/attr"
	"p2pdrm/internal/cryptoutil"
)

var (
	tStart = time.Date(2008, 6, 23, 12, 0, 0, 0, time.UTC)
	tEnd   = tStart.Add(30 * time.Minute)
)

func newKeys(t *testing.T) (mgr, client *cryptoutil.KeyPair) {
	t.Helper()
	rng := cryptoutil.NewSeededReader(1)
	mgr, err := cryptoutil.NewKeyPair(rng)
	if err != nil {
		t.Fatal(err)
	}
	client, err = cryptoutil.NewKeyPair(rng)
	if err != nil {
		t.Fatal(err)
	}
	return mgr, client
}

func sampleUserTicket(client *cryptoutil.KeyPair) *UserTicket {
	return &UserTicket{
		UserIN:    42,
		ClientKey: client.Public(),
		Start:     tStart,
		Expiry:    tEnd,
		Attrs: attr.List{
			{Name: attr.NameNetAddr, Value: "r1.as100.h7"},
			{Name: attr.NameRegion, Value: "100"},
			{Name: attr.NameSubscription, Value: "101", ETime: tEnd.Add(time.Hour)},
		},
	}
}

func TestUserTicketRoundTrip(t *testing.T) {
	mgr, client := newKeys(t)
	ut := sampleUserTicket(client)
	blob := SignUser(ut, mgr)
	got, err := verifyUser(blob, mgr.Public())
	if err != nil {
		t.Fatal(err)
	}
	if got.UserIN != 42 || got.NetAddr() != "r1.as100.h7" || len(got.Attrs) != 3 {
		t.Fatalf("decoded = %+v", got)
	}
	if !bytes.Equal(got.ClientKey.Encode(), client.Public().Encode()) {
		t.Fatal("client key not certified through the ticket")
	}
	if !got.Start.Equal(tStart) || !got.Expiry.Equal(tEnd) {
		t.Fatalf("times = %v..%v", got.Start, got.Expiry)
	}
}

func TestUserTicketTamperDetected(t *testing.T) {
	mgr, client := newKeys(t)
	blob := SignUser(sampleUserTicket(client), mgr)
	for _, idx := range []int{0, 5, len(blob) / 2, len(blob) - 1} {
		mut := append([]byte(nil), blob...)
		mut[idx] ^= 1
		if _, err := verifyUser(mut, mgr.Public()); err == nil {
			t.Fatalf("bit flip at %d accepted", idx)
		}
	}
}

func TestUserTicketWrongIssuer(t *testing.T) {
	mgr, client := newKeys(t)
	rogue, _ := cryptoutil.NewKeyPair(cryptoutil.NewSeededReader(9))
	blob := SignUser(sampleUserTicket(client), rogue)
	if _, err := verifyUser(blob, mgr.Public()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestUserTicketCannotVerifyAsChannel(t *testing.T) {
	mgr, client := newKeys(t)
	blob := SignUser(sampleUserTicket(client), mgr)
	if _, err := VerifyChannel(blob, mgr.Public()); err == nil {
		t.Fatal("user ticket accepted as channel ticket")
	}
}

func TestUserTicketValidity(t *testing.T) {
	_, client := newKeys(t)
	ut := sampleUserTicket(client)
	if err := ut.ValidAt(tStart.Add(-time.Second)); !errors.Is(err, ErrNotYetValid) {
		t.Fatalf("before start: %v", err)
	}
	if err := ut.ValidAt(tStart); err != nil {
		t.Fatalf("at start: %v", err)
	}
	if err := ut.ValidAt(tEnd); !errors.Is(err, ErrExpired) {
		t.Fatalf("at expiry: %v", err)
	}
}

func TestUserTicketMalformed(t *testing.T) {
	mgr, _ := newKeys(t)
	if _, err := verifyUser(nil, mgr.Public()); !errors.Is(err, ErrMalformed) {
		t.Fatalf("nil: %v", err)
	}
	if _, err := verifyUser(make([]byte, 10), mgr.Public()); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short: %v", err)
	}
}

func sampleChannelTicket(client *cryptoutil.KeyPair, renewal bool) *ChannelTicket {
	return &ChannelTicket{
		UserIN:    42,
		ChannelID: "chA",
		NetAddr:   "r1.as100.h7",
		ClientKey: client.Public(),
		Start:     tStart,
		Expiry:    tEnd,
		Renewal:   renewal,
	}
}

func TestChannelTicketRoundTrip(t *testing.T) {
	mgr, client := newKeys(t)
	for _, renewal := range []bool{false, true} {
		ct := sampleChannelTicket(client, renewal)
		got, err := VerifyChannel(SignChannel(ct, mgr), mgr.Public())
		if err != nil {
			t.Fatal(err)
		}
		if got.UserIN != 42 || got.ChannelID != "chA" || got.NetAddr != "r1.as100.h7" ||
			got.Renewal != renewal {
			t.Fatalf("decoded = %+v", got)
		}
		if !bytes.Equal(got.ClientKey.Encode(), client.Public().Encode()) {
			t.Fatal("client key mismatch")
		}
	}
}

func TestChannelTicketTamperDetected(t *testing.T) {
	mgr, client := newKeys(t)
	blob := SignChannel(sampleChannelTicket(client, false), mgr)
	// Flipping the renewal bit specifically must break the signature —
	// an attacker cannot mint a renewal ticket from a fresh one.
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 1
		if _, err := VerifyChannel(mut, mgr.Public()); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
}

func TestChannelTicketBogusRenewalByte(t *testing.T) {
	mgr, client := newKeys(t)
	ct := sampleChannelTicket(client, false)
	body := ct.encodeBody()
	body[len(body)-1] = 7 // invalid renewal marker, then re-sign
	blob := append(body, mgr.Sign(body)...)
	if _, err := VerifyChannel(blob, mgr.Public()); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestChannelTicketValidity(t *testing.T) {
	_, client := newKeys(t)
	ct := sampleChannelTicket(client, false)
	if err := ct.ValidAt(tEnd.Add(-time.Second)); err != nil {
		t.Fatalf("just before expiry: %v", err)
	}
	if err := ct.ValidAt(tEnd); !errors.Is(err, ErrExpired) {
		t.Fatalf("at expiry: %v", err)
	}
}

func TestCapExpiry(t *testing.T) {
	want := tStart.Add(time.Hour)
	attrs := attr.List{
		{Name: "A", Value: "1"}, // null etime
		{Name: "B", Value: "2", ETime: tStart.Add(20 * time.Minute)},
	}
	if got := CapExpiry(want, attrs); !got.Equal(tStart.Add(20 * time.Minute)) {
		t.Fatalf("CapExpiry = %v, want capped to attribute etime", got)
	}
	// No attribute expires sooner → wanted stands.
	attrs2 := attr.List{{Name: "A", Value: "1", ETime: tStart.Add(2 * time.Hour)}}
	if got := CapExpiry(want, attrs2); !got.Equal(want) {
		t.Fatalf("CapExpiry = %v, want %v", got, want)
	}
	// All null etimes → wanted stands.
	attrs3 := attr.List{{Name: "A", Value: "1"}}
	if got := CapExpiry(want, attrs3); !got.Equal(want) {
		t.Fatalf("CapExpiry = %v, want %v", got, want)
	}
}

func TestStrings(t *testing.T) {
	_, client := newKeys(t)
	if sampleUserTicket(client).String() == "" || sampleChannelTicket(client, true).String() == "" {
		t.Fatal("empty String()")
	}
}

// Property: channel tickets round-trip arbitrary field contents.
func TestChannelTicketRoundTripProperty(t *testing.T) {
	mgr, client := newKeys(t)
	pub := client.Public()
	f := func(userIN uint64, chID, netAddr string, renewal bool) bool {
		ct := &ChannelTicket{
			UserIN:    userIN,
			ChannelID: chID,
			NetAddr:   netAddr,
			ClientKey: pub,
			Start:     tStart,
			Expiry:    tEnd,
			Renewal:   renewal,
		}
		got, err := VerifyChannel(SignChannel(ct, mgr), mgr.Public())
		if err != nil {
			return false
		}
		return got.UserIN == userIN && got.ChannelID == chID &&
			got.NetAddr == netAddr && got.Renewal == renewal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: user tickets preserve their attribute lists exactly.
func TestUserTicketAttrsProperty(t *testing.T) {
	mgr, client := newKeys(t)
	pub := client.Public()
	f := func(names []string) bool {
		if len(names) > 16 {
			names = names[:16]
		}
		var l attr.List
		for _, n := range names {
			l = append(l, attr.Attribute{Name: n, Value: "v"})
		}
		ut := &UserTicket{UserIN: 1, ClientKey: pub, Start: tStart, Expiry: tEnd, Attrs: l}
		got, err := verifyUser(SignUser(ut, mgr), mgr.Public())
		if err != nil || len(got.Attrs) != len(l) {
			return false
		}
		for i := range l {
			if got.Attrs[i].Name != l[i].Name {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
