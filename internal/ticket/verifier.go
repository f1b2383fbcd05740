// Verified-ticket caching. Ticket verification is dominated by the
// Ed25519 signature check (~50µs) plus a full body re-parse, and the same
// signed blob is presented over and over: every parent a peer contacts
// re-verifies the same Channel Ticket, every SWITCH round re-verifies the
// same User Ticket. A Verifier memoizes successful verifications in a
// bounded LRU keyed by a hash of the complete signed bytes AND the signer
// key, so a hit is exactly "these bytes already passed verification under
// this key" — a forged or mutated ticket can never hit the cache, and a
// ticket verified against the wrong signer cannot alias a right-signer
// entry. Validity windows are deliberately NOT cached: callers check
// ValidAt against the current clock on every use, cached or not.
package ticket

import (
	"crypto/sha256"
	"sync/atomic"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/lru"
)

// defaultVerifierCap bounds each of the two ticket caches when
// NewVerifier is given a non-positive capacity.
const defaultVerifierCap = 1024

// Verifier caches successful ticket verifications. Tickets returned from
// a cache hit are shared: callers must treat them as read-only (all
// existing callers copy before mutating). The zero value is not usable;
// call NewVerifier.
type Verifier struct {
	user    *lru.Cache[[32]byte, *UserTicket]
	channel *lru.Cache[[32]byte, *ChannelTicket]
	hits    atomic.Int64
	misses  atomic.Int64
}

// NewVerifier creates a Verifier holding up to capacity verified tickets
// of each kind (non-positive means defaultVerifierCap). Each cache's
// storage is created by its first Add, so a kind never verified — an
// overlay peer only ever sees Channel Tickets — costs its header alone.
func NewVerifier(capacity int) *Verifier {
	if capacity <= 0 {
		capacity = defaultVerifierCap
	}
	return &Verifier{
		user:    lru.New[[32]byte, *UserTicket](capacity),
		channel: lru.New[[32]byte, *ChannelTicket](capacity),
	}
}

// cacheKey binds the complete signed blob (body and signature) to the
// signer's full public key. Both halves of the signer key are fixed-width
// (32 bytes each), so the concatenation is unambiguous.
func cacheKey(b []byte, mgr cryptoutil.PublicKey) [32]byte {
	h := sha256.New()
	h.Write(mgr.Verify)
	h.Write(mgr.Box)
	h.Write(b)
	var k [32]byte
	h.Sum(k[:0])
	return k
}

// VerifyUser is VerifyUser with memoized signature checks. Errors are
// never cached; a failing blob takes the full path every time.
func (v *Verifier) VerifyUser(b []byte, mgr cryptoutil.PublicKey) (*UserTicket, error) {
	k := cacheKey(b, mgr)
	if t, ok := v.user.Get(k); ok {
		v.hits.Add(1)
		return t, nil
	}
	t, err := VerifyUser(b, mgr)
	if err != nil {
		return nil, err
	}
	v.misses.Add(1)
	v.user.Add(k, t)
	return t, nil
}

// VerifyChannel is VerifyChannel with memoized signature checks.
func (v *Verifier) VerifyChannel(b []byte, mgr cryptoutil.PublicKey) (*ChannelTicket, error) {
	k := cacheKey(b, mgr)
	if t, ok := v.channel.Get(k); ok {
		v.hits.Add(1)
		return t, nil
	}
	t, err := VerifyChannel(b, mgr)
	if err != nil {
		return nil, err
	}
	v.misses.Add(1)
	v.channel.Add(k, t)
	return t, nil
}

// RememberChannel records a Channel Ticket the caller has itself just
// issued: b is SignChannel's output for t under the key pair whose
// public half is mgr. A signer has no need to check its own signature,
// so when the client presents b back to the backend that issued it (the
// renewal's ExpiringTicket) VerifyChannel hits. Same key, same LRU bound
// as a verified entry; t is shared with later hits, so the caller must
// not modify it afterwards. Only an issuing path may call this — it is
// the one place where "these bytes are validly signed by mgr" is known
// without checking.
func (v *Verifier) RememberChannel(b []byte, mgr cryptoutil.PublicKey, t *ChannelTicket) {
	v.channel.Add(cacheKey(b, mgr), t)
}
