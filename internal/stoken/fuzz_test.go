package stoken

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"p2pdrm/internal/wire"
)

// FuzzOpenState: OpenState never panics, whatever the token bytes. It
// opens exactly the state SealState sealed under the same secret at any
// instant before the expiry, and refuses — without running the reader —
// a token with one byte flipped, a truncated token, a token sealed under
// another secret, and any instant at or after the expiry.
func FuzzOpenState(f *testing.F) {
	f.Add([]byte("um-farm-secret"), []byte("alice@example.com"), int64(30*time.Second), uint16(0), []byte{})
	f.Add([]byte{}, []byte{}, int64(1), uint16(0xffff), []byte("not a token"))
	f.Add(bytes.Repeat([]byte{7}, 100), bytes.Repeat([]byte{1}, 300), int64(-5), uint16(41), make([]byte, 40))

	f.Fuzz(func(t *testing.T, secret, state []byte, ttl int64, pos uint16, junk []byte) {
		s := New(secret)
		read := func(ran *bool, got *[]byte) func(d *wire.Dec) {
			return func(d *wire.Dec) { *ran, *got = true, d.Blob() }
		}
		var ran bool
		var got []byte
		_ = s.OpenState(junk, now, read(&ran, &got)) // never panics

		// A lifetime in [1ns, 1h): the token is live for all of it.
		ttl %= int64(time.Hour)
		if ttl < 0 {
			ttl = -ttl
		}
		expiry := now.Add(time.Duration(ttl) + 1)
		tok := s.SealState(expiry, func(e *wire.Enc) { e.Blob(state) })

		for _, at := range []time.Time{now, expiry.Add(-1)} {
			ran, got = false, nil
			if err := s.OpenState(tok, at, read(&ran, &got)); err != nil || !ran || !bytes.Equal(got, state) {
				t.Fatalf("open at %v before expiry %v: %v, read %q, sealed %q", at, expiry, err, got, state)
			}
		}
		refused := func(what string, tok []byte, at time.Time, s *Sealer, want error) {
			t.Helper()
			ran = false
			err := s.OpenState(tok, at, read(&ran, &got))
			if !errors.Is(err, want) || ran {
				t.Fatalf("%s: err %v (want %v), reader ran %v", what, err, want, ran)
			}
		}
		refused("at expiry", tok, expiry, s, ErrExpired)
		refused("after expiry", tok, expiry.Add(time.Duration(pos)+1), s, ErrExpired)

		flipped := bytes.Clone(tok)
		flipped[int(pos)%len(tok)] ^= 1 << (pos % 8)
		refused("one byte flipped", flipped, now, s, ErrBadToken)
		refused("truncated", tok[:int(pos)%len(tok)], now, s, ErrBadToken)

		other := bytes.Clone(secret)
		if len(other) == 0 {
			other = []byte{1}
		} else {
			other[int(pos)%len(other)] ^= 0x80
		}
		refused("another secret", tok, now, New(other), ErrBadToken)
	})
}
