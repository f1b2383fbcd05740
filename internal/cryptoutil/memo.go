package cryptoutil

import (
	"bytes"
	"io"
	"sync"
)

// memoCap bounds each of a Memo's two tables: at most memoCap challenge
// signatures and memoCap session-key secrets are held at once.
const memoCap = 4096

// memoMsgMax is the longest message Memo.Sign records. Challenge
// messages are a nonce (16 bytes) or a nonce and attestation checksum
// (48); a longer message is signed but not recorded, so every entry has
// the same fixed size.
const memoMsgMax = 64

// sigRecord is what a recorded signature was made over: the signer's
// Ed25519 verify key and the exact message bytes.
type sigRecord struct {
	pub [32]byte
	n   uint8
	msg [memoMsgMax]byte
}

// Memo shares the results of this process's own challenge signatures
// and ECIES seals with the checks that follow them, so when signer and
// checker, or sealer and opener, run in one process (a simulated
// deployment) the check does not redo the curve arithmetic.
//
// Sign records (signer, msg, sig) after signing; the first VerifySig of
// exactly those bytes returns true without the Ed25519 check and drops
// the record. Seal records the ECDH secret it computed, keyed by the
// ephemeral public key and the recipient's box key; the first Open of a
// sealed payload carrying that ephemeral key, by the key pair owning that
// box key, skips its X25519 ladder and drops the record, and still runs
// the KDF and the AES-GCM tag check. Records are made only by the real
// primitives from private material, and no method inserts anything else,
// so a hit returns exactly what the skipped computation would: a
// signature Sign produced verifies (Ed25519 correctness), and eph·(k·9)
// = k·(eph·9) (X25519 commutativity). A forged, altered or misaddressed
// input never matches a record and takes the full check.
//
// Each table holds at most memoCap fixed-size records in two
// generations: when the newer fills to half the bound it becomes the
// older and the previous older is dropped. A dropped record only costs
// its check again. A nil *Memo is valid and runs every check in full.
// All methods are safe for concurrent use.
type Memo struct {
	mu     sync.Mutex
	sigs   gens[[SignatureSize]byte, sigRecord]
	shared gens[[64]byte, [32]byte] // ephPub || recipient box key → ECDH secret
	hits   int64
	misses int64
}

// NewMemo returns an empty Memo. Its tables are created by their first
// record.
func NewMemo() *Memo { return &Memo{} }

// Sign is k.Sign(msg), recording the signature for VerifySig.
func (m *Memo) Sign(k *KeyPair, msg []byte) []byte {
	sig := k.Sign(msg)
	if m == nil || len(msg) > memoMsgMax {
		return sig
	}
	rec := sigRecord{n: uint8(len(msg))}
	copy(rec.pub[:], k.sign[32:]) // an ed25519.PrivateKey is seed || public key
	copy(rec.msg[:], msg)
	m.mu.Lock()
	m.sigs.put([SignatureSize]byte(sig), rec)
	m.mu.Unlock()
	return sig
}

// VerifySig is pub.VerifySig(msg, sig), answered from the record Sign
// made of exactly these bytes when there is one.
func (m *Memo) VerifySig(pub PublicKey, msg, sig []byte) bool {
	if m == nil || len(pub.Verify) != 32 || len(sig) != SignatureSize || len(msg) > memoMsgMax {
		return pub.VerifySig(msg, sig)
	}
	key := [SignatureSize]byte(sig)
	m.mu.Lock()
	rec, ok := m.sigs.get(key)
	if ok && bytes.Equal(rec.pub[:], pub.Verify) && bytes.Equal(rec.msg[:rec.n], msg) {
		m.sigs.del(key)
		m.hits++
		m.mu.Unlock()
		return true
	}
	m.misses++
	m.mu.Unlock()
	return pub.VerifySig(msg, sig)
}

// Seal is Seal(rng, to, plaintext) — the same rng reads and the same
// output bytes — recording the ECDH secret for Open.
func (m *Memo) Seal(rng io.Reader, to PublicKey, plaintext []byte) ([]byte, error) {
	out, shared, err := seal(rng, to, plaintext)
	if m == nil || err != nil {
		return out, err
	}
	var key [64]byte
	copy(key[:32], out)
	copy(key[32:], to.Box)
	m.mu.Lock()
	m.shared.put(key, [32]byte(shared))
	m.mu.Unlock()
	return out, nil
}

// Open is k.Open(sealed), taking the ECDH secret from the record Seal
// made for this ephemeral key and k's box key when there is one.
func (m *Memo) Open(k *KeyPair, sealed []byte) ([]byte, error) {
	if m == nil || len(sealed) < 32+gcmNonceSize {
		return k.Open(sealed)
	}
	var key [64]byte
	copy(key[:32], sealed)
	copy(key[32:], k.boxPub[:])
	m.mu.Lock()
	shared, ok := m.shared.get(key)
	if ok {
		m.shared.del(key)
		m.hits++
	} else {
		m.misses++
	}
	m.mu.Unlock()
	if !ok {
		return k.Open(sealed)
	}
	return k.openShared(shared[:], sealed)
}

// gens is a map bounded to memoCap entries in two generations: puts go
// to cur, and when cur holds memoCap/2 it replaces old (whose entries
// are dropped) and a fresh cur starts. Callers hold Memo.mu.
type gens[K comparable, V any] struct {
	cur, old map[K]V
}

func (g *gens[K, V]) put(k K, v V) {
	if len(g.cur) >= memoCap/2 {
		g.old, g.cur = g.cur, nil
	}
	if g.cur == nil {
		g.cur = make(map[K]V)
	}
	g.cur[k] = v
}

func (g *gens[K, V]) get(k K) (V, bool) {
	if v, ok := g.cur[k]; ok {
		return v, true
	}
	v, ok := g.old[k]
	return v, ok
}

func (g *gens[K, V]) del(k K) {
	delete(g.cur, k)
	delete(g.old, k)
}
