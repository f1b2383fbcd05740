package stoken

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"p2pdrm/internal/wire"
)

// TestStateRoundTrip exercises the round-1 handshake helper both managers
// share: structured fields sealed in round 1 come back intact in round 2.
func TestStateRoundTrip(t *testing.T) {
	s := New([]byte("farm secret"))
	tok := s.SealState(now.Add(time.Minute), func(e *wire.Enc) {
		e.Str("alice@example.com")
		e.Blob([]byte{1, 2, 3})
		e.U32(7)
		e.Bool(true)
	})
	var (
		email   string
		nonce   []byte
		version uint32
		renewal bool
	)
	err := s.OpenState(tok, now, func(d *wire.Dec) {
		email = d.Str()
		nonce = d.Blob()
		version = d.U32()
		renewal = d.Bool()
	})
	if err != nil {
		t.Fatal(err)
	}
	if email != "alice@example.com" || !bytes.Equal(nonce, []byte{1, 2, 3}) || version != 7 || !renewal {
		t.Fatalf("state = %q %v %d %v", email, nonce, version, renewal)
	}
}

func TestOpenStateRejectsTampering(t *testing.T) {
	s := New([]byte("secret"))
	tok := s.SealState(now.Add(time.Minute), func(e *wire.Enc) { e.Str("x") })
	tok[len(tok)/2] ^= 1
	err := s.OpenState(tok, now, func(d *wire.Dec) { d.Str() })
	if !errors.Is(err, ErrBadToken) {
		t.Fatalf("err = %v, want ErrBadToken", err)
	}
}

func TestOpenStateRejectsExpiry(t *testing.T) {
	s := New([]byte("secret"))
	tok := s.SealState(now.Add(time.Minute), func(e *wire.Enc) { e.Str("x") })
	err := s.OpenState(tok, now.Add(2*time.Minute), func(d *wire.Dec) { d.Str() })
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
}

// TestOpenStateRejectsSchemaMismatch: a reader that expects different
// fields than were sealed must fail (sticky decode error or trailing
// bytes), never silently misparse.
func TestOpenStateRejectsSchemaMismatch(t *testing.T) {
	s := New([]byte("secret"))
	tok := s.SealState(now.Add(time.Minute), func(e *wire.Enc) { e.Str("x") })
	// Read too much.
	if err := s.OpenState(tok, now, func(d *wire.Dec) { d.Str(); d.U32() }); err == nil {
		t.Fatal("over-read accepted")
	}
	// Read too little: trailing bytes.
	tok2 := s.SealState(now.Add(time.Minute), func(e *wire.Enc) { e.Str("x"); e.U32(1) })
	if err := s.OpenState(tok2, now, func(d *wire.Dec) { d.Str() }); err == nil {
		t.Fatal("under-read accepted")
	}
}
