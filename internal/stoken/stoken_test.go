package stoken

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

var now = time.Date(2008, 6, 23, 12, 0, 0, 0, time.UTC)

func TestSealOpenRoundTrip(t *testing.T) {
	s := New([]byte("farm secret"))
	tok := s.Seal([]byte("handshake state"), now.Add(time.Minute))
	got, err := s.Open(tok, now)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("handshake state")) {
		t.Fatalf("payload = %q", got)
	}
}

func TestOpenExpired(t *testing.T) {
	s := New([]byte("secret"))
	tok := s.Seal([]byte("x"), now.Add(time.Minute))
	if _, err := s.Open(tok, now.Add(2*time.Minute)); !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
	// The expiry is exclusive: live one tick before it, dead at it.
	if _, err := s.Open(tok, now.Add(time.Minute-1)); err != nil {
		t.Fatalf("one tick before expiry: %v", err)
	}
	if _, err := s.Open(tok, now.Add(time.Minute)); !errors.Is(err, ErrExpired) {
		t.Fatalf("at expiry: err = %v, want ErrExpired", err)
	}
}

func TestOpenTampered(t *testing.T) {
	s := New([]byte("secret"))
	tok := s.Seal([]byte("payload"), now.Add(time.Minute))
	for i := 0; i < len(tok); i += 3 {
		mut := append([]byte(nil), tok...)
		mut[i] ^= 1
		if _, err := s.Open(mut, now); !errors.Is(err, ErrBadToken) {
			t.Fatalf("bit flip at %d: err = %v, want ErrBadToken", i, err)
		}
	}
}

func TestOpenWrongSecret(t *testing.T) {
	tok := New([]byte("secret-a")).Seal([]byte("x"), now.Add(time.Minute))
	if _, err := New([]byte("secret-b")).Open(tok, now); !errors.Is(err, ErrBadToken) {
		t.Fatalf("err = %v, want ErrBadToken", err)
	}
}

func TestOpenShort(t *testing.T) {
	s := New([]byte("secret"))
	if _, err := s.Open([]byte("tiny"), now); !errors.Is(err, ErrBadToken) {
		t.Fatalf("err = %v, want ErrBadToken", err)
	}
}

func TestFarmMembersShareTokens(t *testing.T) {
	// Two sealers with the same secret stand in for two farm backends:
	// one mints in round 1, the other verifies in round 2 (§V).
	a := New([]byte("shared"))
	b := New([]byte("shared"))
	tok := a.Seal([]byte("state"), now.Add(time.Minute))
	if _, err := b.Open(tok, now); err != nil {
		t.Fatalf("farm peer rejected token: %v", err)
	}
}

// Property: any payload round-trips before expiry.
func TestRoundTripProperty(t *testing.T) {
	s := New([]byte("secret"))
	f := func(payload []byte) bool {
		tok := s.Seal(payload, now.Add(time.Hour))
		got, err := s.Open(tok, now)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
