// Verified-ticket memo. Ticket verification is dominated by the Ed25519
// signature check (~50µs) plus a full body re-parse, and one signed blob
// is presented many times: to the client that receives it, to every
// Channel Manager backend and the Policy Manager on each round of its
// life, and to every overlay parent the viewer joins. A Verifier memoizes
// successful verifications in a bounded LRU keyed by a hash of the
// complete signed bytes AND the signer key, so a hit is exactly "these
// bytes passed Ed25519 under this key" — a pure function of (key, bytes),
// the same on every node that asks. One Verifier may therefore serve a
// whole deployment: whichever node sees a ticket first checks it (or, for
// the issuer, remembers it at signing), and every later check of the
// same bytes under the same key hits. A forged or mutated ticket can
// never hit, and a ticket checked against the wrong signer cannot alias
// a right-signer entry. Validity windows are deliberately NOT cached:
// callers check ValidAt (and any address or channel binding) against
// their own clock on every use, cached or not.
//
// A Verifier also carries the deployment's cryptoutil.Memo, so the
// challenge signatures and JOIN session keys of the nodes sharing it are
// checked through one memo too (see Crypto).
package ticket

import (
	"crypto/sha256"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/lru"
)

// verifierCap bounds each of the two ticket caches when NewVerifier is
// given a non-positive capacity. A miss costs one Ed25519 verify; a
// larger memo retains more parsed tickets without saving any on the
// measurement week.
const verifierCap = 4096

// Verifier caches successful ticket verifications. Tickets returned from
// a cache hit are shared — possibly with other nodes, and with the issuer
// that remembered them: callers must treat them as read-only (all
// existing callers copy before mutating). All methods are safe for
// concurrent use. The zero value is not usable; call NewVerifier.
type Verifier struct {
	user    *lru.Cache[[32]byte, *UserTicket]
	channel *lru.Cache[[32]byte, *ChannelTicket]
	crypto  *cryptoutil.Memo
}

// NewVerifier creates a Verifier holding up to capacity verified tickets
// of each kind (non-positive means verifierCap), and an empty
// Crypto memo. Each cache's storage is created by its first Add, so a
// kind never verified costs its header alone.
func NewVerifier(capacity int) *Verifier {
	if capacity <= 0 {
		capacity = verifierCap
	}
	return &Verifier{
		user:    lru.New[[32]byte, *UserTicket](capacity),
		channel: lru.New[[32]byte, *ChannelTicket](capacity),
		crypto:  cryptoutil.NewMemo(),
	}
}

// Crypto returns the challenge-signature and session-key memo of the
// nodes sharing v: clients sign LOGIN2/SWITCH2 nonces and managers check
// them through it, and overlay parents seal JOIN session keys and
// joiners open them through it.
func (v *Verifier) Crypto() *cryptoutil.Memo { return v.crypto }

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

// VerifyUser parses a signed User Ticket and checks the User Manager's
// signature, memoized. Validity times are NOT checked — call ValidAt.
// Errors are never cached; a failing blob takes the full path every time.
func (v *Verifier) VerifyUser(b []byte, mgr cryptoutil.PublicKey) (*UserTicket, error) {
	k := cacheKey(b, mgr)
	if t, ok := v.user.Get(k); ok {
		return t, nil
	}
	t, err := verifyUser(b, mgr)
	if err != nil {
		return nil, err
	}
	v.user.Add(k, t)
	return t, nil
}

// VerifyChannel parses a signed Channel Ticket and checks the Channel
// Manager's signature, memoized like VerifyUser. Validity times and the
// ticket's address binding are NOT checked.
func (v *Verifier) VerifyChannel(b []byte, mgr cryptoutil.PublicKey) (*ChannelTicket, error) {
	k := cacheKey(b, mgr)
	if t, ok := v.channel.Get(k); ok {
		return t, nil
	}
	t, err := VerifyChannel(b, mgr)
	if err != nil {
		return nil, err
	}
	v.channel.Add(k, t)
	return t, nil
}

// RememberUser records a User Ticket the caller has itself just issued:
// b is SignUser's output for t under the key pair whose public half is
// mgr. It mirrors RememberChannel.
func (v *Verifier) RememberUser(b []byte, mgr cryptoutil.PublicKey, t *UserTicket) {
	v.user.Add(cacheKey(b, mgr), t)
}

// RememberChannel records a Channel Ticket the caller has itself just
// issued: b is SignChannel's output for t under the key pair whose
// public half is mgr. A signer has no need to check its own signature,
// so when b is presented anywhere the Verifier is shared — to the client
// receiving it, to an overlay parent, back to the issuing farm as a
// renewal's ExpiringTicket — VerifyChannel hits. Same key, same LRU
// bound as a verified entry; t is shared with later hits, so the caller
// must not modify it afterwards. Only an issuing path may call this — it
// is the one place where "these bytes are validly signed by mgr" is
// known without checking.
func (v *Verifier) RememberChannel(b []byte, mgr cryptoutil.PublicKey, t *ChannelTicket) {
	v.channel.Add(cacheKey(b, mgr), t)
}
