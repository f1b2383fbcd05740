package stoken

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	mrand "math/rand"
	"testing"
	"time"
)

// sealHMACRef mints a token the way Seal did before the stack-form MAC:
// a keyed crypto/hmac over expiry || payload. Test-only reference.
func sealHMACRef(secret, payload []byte, expiry time.Time) []byte {
	out := binary.BigEndian.AppendUint64(nil, uint64(expiry.UnixNano()))
	out = append(out, payload...)
	h := hmac.New(sha256.New, secret)
	h.Write(out)
	return h.Sum(out)
}

// TestTokensMatchHMACReference: for random payloads on both sides of the
// MAC's stack buffer, and secrets shorter than, equal to and longer than
// SHA-256's block (the longer one is hashed first, per RFC 2104), tokens
// are byte-identical to crypto/hmac's and open again.
func TestTokensMatchHMACReference(t *testing.T) {
	rng := mrand.New(mrand.NewSource(24))
	for _, secretLen := range []int{1, 11, 32, 64, 65, 200} {
		secret := make([]byte, secretLen)
		rng.Read(secret)
		s := New(secret)
		for _, n := range []int{0, 1, 63, 115, 150, 247, 248, 249, 256, 1000, 5000} {
			payload := make([]byte, n)
			rng.Read(payload)
			expiry := now.Add(time.Duration(rng.Intn(3600)) * time.Second)
			tok := s.Seal(payload, expiry)
			if want := sealHMACRef(secret, payload, expiry); !bytes.Equal(tok, want) {
				t.Fatalf("secret %d B, payload %d B: token differs from the hmac reference", secretLen, n)
			}
			if got, err := s.Open(tok, now); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("secret %d B, payload %d B: Open = %v", secretLen, n, err)
			}
		}
	}
}

// TestSealOpenAllocatesOnlyTheirResults: a handshake-sized token costs
// the token on Seal and the payload copy on Open; the MAC itself is free.
func TestSealOpenAllocatesOnlyTheirResults(t *testing.T) {
	s := New([]byte("farm secret"))
	payload := make([]byte, 150)
	tok := s.Seal(payload, now.Add(time.Minute))
	if n := testing.AllocsPerRun(100, func() { _ = s.Seal(payload, now.Add(time.Minute)) }); n != 1 {
		t.Errorf("Seal allocates %.0f objects, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = s.Open(tok, now) }); n != 1 {
		t.Errorf("Open allocates %.0f objects, want 1", n)
	}
}
