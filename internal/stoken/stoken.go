// Package stoken implements stateless server tokens: HMAC-authenticated,
// expiring blobs that carry a protocol handshake's intermediate state back
// through the client instead of in server memory.
//
// The paper requires both ticket-acquisition protocols to be atomic, with
// neither the User Manager nor the Channel Manager keeping per-client
// state, so that "a client can finish the authentication process with
// different User Managers at each step" within a farm (§V). Farm members
// share the token secret along with the key pair, making the two-round
// nonce challenges stateless.
package stoken

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"time"

	"p2pdrm/internal/cryptoutil"
)

// Token errors.
var (
	ErrBadToken = errors.New("stoken: authentication failed")
	ErrExpired  = errors.New("stoken: token expired")
)

const macSize = sha256.Size

// Sealer mints and verifies tokens under a shared secret.
type Sealer struct {
	key cryptoutil.MACKey
}

// New creates a Sealer. The secret must be shared by all farm members
// behind one manager address.
func New(secret []byte) *Sealer {
	return &Sealer{key: cryptoutil.NewMACKey(secret)}
}

// Seal wraps payload with an expiry and a MAC.
// Layout: expiryNanos(8) || payload || mac(32).
func (s *Sealer) Seal(payload []byte, expiry time.Time) []byte {
	out := make([]byte, 0, 8+len(payload)+macSize)
	out = binary.BigEndian.AppendUint64(out, uint64(expiry.UnixNano()))
	out = append(out, payload...)
	mac := s.key.Sum(out)
	return append(out, mac[:]...)
}

// Open verifies the MAC and expiry and returns the payload.
func (s *Sealer) Open(tok []byte, now time.Time) ([]byte, error) {
	if len(tok) < 8+macSize {
		return nil, ErrBadToken
	}
	body := tok[:len(tok)-macSize]
	want := s.key.Sum(body)
	if !hmac.Equal(tok[len(tok)-macSize:], want[:]) {
		return nil, ErrBadToken
	}
	expiry := time.Unix(0, int64(binary.BigEndian.Uint64(body))).UTC()
	if now.After(expiry) {
		return nil, ErrExpired
	}
	return append([]byte(nil), body[8:]...), nil
}
