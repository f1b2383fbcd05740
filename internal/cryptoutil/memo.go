package cryptoutil

import (
	"bytes"
	"crypto/cipher"
	"io"
	"sync"
)

// memoCap bounds a Memo's two record tables: at most memoCap challenge
// signatures and memoCap sealed-payload AEADs are held at once.
const memoCap = 4096

// sealerCap bounds a Memo's SealKey table. An entry only has to bridge
// the time from a key's first holder taking it to its last: a JOIN's two
// ends take it one round trip apart, a channel's peers as the key spreads
// down the tree, a client and its User Manager at each LOGIN1, and a
// looked-up entry moves to the newer generation. Each entry past its
// holders can keep a built AEAD (~1.3 kB) alive, so the bound is a
// quarter of memoCap: on the seed-1 week_diurnal benchmark run, a bound
// of 4096 saved 1.1 MB (0.4 %) of allocation over 1024 and cost 2.8 MB
// of peak RSS.
const sealerCap = 1024

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
// deployment) the check does not redo the curve arithmetic. It also holds
// the deployment's one SealKey per symmetric key (see Sealer).
//
// Sign records (signer, msg, sig) after signing; the first VerifySig of
// exactly those bytes returns true without the Ed25519 check and drops
// the record. Seal records the AEAD it derived, keyed by the ephemeral
// public key and the recipient's box key; the first Open of a sealed
// payload carrying that ephemeral key, by the key pair owning that box
// key, skips its X25519 ladder, the KDF and the AES-GCM set-up, drops the
// record, and still runs the AES-GCM tag check. Records are made only by
// the real primitives from private material, and no method inserts
// anything else, so a hit returns exactly what the skipped computation
// would: a signature Sign produced verifies (Ed25519 correctness), and
// eph·(k·9) = k·(eph·9) (X25519 commutativity), so the KDF over the
// recorded key's inputs derives the recorded AEAD. A forged, altered or
// misaddressed input never matches a record and takes the full check.
//
// Each table holds at most its bound (memoCap, sealerCap) of fixed-size
// entries in two generations: when the newer fills to half the bound it
// becomes the older and the previous older is dropped. A dropped entry
// only costs its check, or its AEAD build, again. A nil *Memo is valid,
// runs every check in full and shares no SealKey. All methods are safe
// for concurrent use. Every answer depends only on the order of the
// calls made, never on timing or the garbage collector.
type Memo struct {
	mu      sync.Mutex
	sigs    gens[[SignatureSize]byte, sigRecord]
	sealed  gens[[64]byte, cipher.AEAD] // ephPub || recipient box key → derived AEAD
	sealers gens[SymKey, *SealKey]
	hits    int64
	misses  int64
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
	m.sigs.put([SignatureSize]byte(sig), rec, memoCap)
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
// output bytes — recording the derived AEAD for Open.
func (m *Memo) Seal(rng io.Reader, to PublicKey, plaintext []byte) ([]byte, error) {
	out, gcm, err := seal(rng, to, plaintext)
	if m == nil || err != nil {
		return out, err
	}
	var key [64]byte
	copy(key[:32], out)
	copy(key[32:], to.Box)
	m.mu.Lock()
	m.sealed.put(key, gcm, memoCap)
	m.mu.Unlock()
	return out, nil
}

// Open is k.Open(sealed), authenticating and decrypting under the AEAD
// Seal recorded for this ephemeral key and k's box key when there is one.
func (m *Memo) Open(k *KeyPair, sealed []byte) ([]byte, error) {
	if m == nil || len(sealed) < 32+gcmNonceSize {
		return k.Open(sealed)
	}
	var key [64]byte
	copy(key[:32], sealed)
	copy(key[32:], k.boxPub[:])
	m.mu.Lock()
	gcm, ok := m.sealed.get(key)
	if ok {
		m.sealed.del(key)
		m.hits++
	} else {
		m.misses++
	}
	m.mu.Unlock()
	if !ok {
		return k.Open(sealed)
	}
	return openECIES(gcm, sealed)
}

// Sealer returns the deployment's SealKey for k: every holder of the same
// 16 bytes — both ends of a JOIN session, every peer of a channel and its
// Channel Server, a client and its User Manager — gets the same SealKey,
// and so one AEAD, built lazily by the first Seal, Open or SealAppend on
// it. Sharing is exact: a cipher.AEAD is a pure function of its key and
// keeps no state between calls, so a shared SealKey seals and opens the
// bytes a private one would. A key taken again after its entry was
// dropped gets a fresh SealKey, which only costs that AEAD build again. A
// nil Memo returns k.Sealer().
func (m *Memo) Sealer(k SymKey) *SealKey {
	if m == nil {
		return k.Sealer()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.sealers.cur[k]; ok {
		return s
	}
	s, ok := m.sealers.old[k]
	if ok {
		delete(m.sealers.old, k) // in use: carry it into the newer generation
	} else {
		s = k.Sealer()
	}
	m.sealers.put(k, s, sealerCap)
	return s
}

// gens is a map bounded to a fixed number of entries in two
// generations: puts go to cur, and when cur holds half the bound it
// replaces old, whose entries are dropped and whose map, cleared, is the
// next cur — so a full table turns over without allocating. Callers hold
// Memo.mu.
type gens[K comparable, V any] struct {
	cur, old map[K]V
}

func (g *gens[K, V]) put(k K, v V, bound int) {
	if len(g.cur) >= bound/2 {
		g.old, g.cur = g.cur, g.old
		clear(g.cur)
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
