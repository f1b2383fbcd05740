// Package cryptoutil provides the cryptographic primitives used by the
// DRM system, built purely on the Go standard library:
//
//   - identity key pairs: Ed25519 for signatures (nonce challenges, ticket
//     signing) plus X25519 for receiving sealed payloads (session keys);
//   - ECIES-style Seal/Open ("encrypt with the client's public key" in the
//     paper): ephemeral X25519 ECDH → HMAC-SHA-256 KDF → AES-128-GCM;
//   - symmetric AES-128-GCM for session keys and the rotating content keys
//     (GCM authentication doubles as the paper's channel-hijack detection);
//   - password hashing (the paper's "secure hash of the user's password",
//     shp) and a rudimentary remote-attestation checksum.
//
// The paper explicitly treats the concrete primitives as replaceable
// engineering details (§IV); this package picks modern stdlib ones.
package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hmac"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"sync"
)

// Sizes of encoded key material.
const (
	// PublicKeySize is the encoded size of a PublicKey: 32 bytes Ed25519
	// verify key + 32 bytes X25519 box key.
	PublicKeySize = 64
	// SymKeySize is 16 bytes (AES-128, matching the paper's 128-bit AES).
	SymKeySize = 16
	// SignatureSize is the Ed25519 signature size.
	SignatureSize = ed25519.SignatureSize
	// NonceSize is the size of protocol nonces.
	NonceSize = 16
)

// Errors returned by Open operations.
var (
	ErrDecrypt   = errors.New("cryptoutil: decryption failed")
	ErrBadKey    = errors.New("cryptoutil: malformed key material")
	ErrShortData = errors.New("cryptoutil: ciphertext too short")
)

// KeyPair is a dual-purpose identity: it signs (Ed25519) and receives
// sealed payloads (X25519). Managers certify the public half by signing
// tickets that embed it.
type KeyPair struct {
	sign ed25519.PrivateKey
	box  *ecdh.PrivateKey
	// boxPub is box's public half, encoded once: every Open binds it
	// into the KDF.
	boxPub [32]byte
}

// PublicKey is the public half of a KeyPair.
type PublicKey struct {
	Verify ed25519.PublicKey
	Box    []byte // X25519 public key bytes
	// boxParsed is the parsed form of Box when the key came from
	// KeyPair.Public, so Seal skips re-parsing; a decoded key leaves it
	// nil and Seal parses on use. It never affects Encode/Equal.
	boxParsed *ecdh.PublicKey
}

// NewKeyPair generates a key pair from rng (nil means crypto/rand).
func NewKeyPair(rng io.Reader) (*KeyPair, error) {
	if rng == nil {
		rng = crand.Reader
	}
	_, sk, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("ed25519 keygen: %w", err)
	}
	bk, err := newX25519Key(rng)
	if err != nil {
		return nil, fmt.Errorf("x25519 keygen: %w", err)
	}
	k := &KeyPair{sign: sk, box: bk}
	copy(k.boxPub[:], bk.PublicKey().Bytes())
	return k, nil
}

// newX25519Key derives an X25519 private key by reading exactly 32 bytes
// from rng. The stdlib's ecdh GenerateKey reads a runtime-randomized
// number of bytes (randutil.MaybeReadByte), which would desynchronize a
// seeded stream shared by many components and break simulation
// reproducibility.
func newX25519Key(rng io.Reader) (*ecdh.PrivateKey, error) {
	var seed [32]byte
	if _, err := io.ReadFull(rng, seed[:]); err != nil {
		return nil, err
	}
	return ecdh.X25519().NewPrivateKey(seed[:])
}

// Public returns the public half.
func (k *KeyPair) Public() PublicKey {
	pub, _ := k.sign.Public().(ed25519.PublicKey)
	return PublicKey{
		Verify:    pub,
		Box:       append([]byte(nil), k.boxPub[:]...),
		boxParsed: k.box.PublicKey(),
	}
}

// Sign signs msg with the Ed25519 key.
func (k *KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.sign, msg)
}

// VerifySig checks an Ed25519 signature made by the key pair owning p.
func (p PublicKey) VerifySig(msg, sig []byte) bool {
	if len(p.Verify) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(p.Verify, msg, sig)
}

// Encode serializes the public key to PublicKeySize bytes.
func (p PublicKey) Encode() []byte {
	out := make([]byte, 0, PublicKeySize)
	out = append(out, p.Verify...)
	out = append(out, p.Box...)
	return out
}

// DecodePublicKey parses a PublicKeySize-byte encoding. The X25519 half
// stays as bytes: most decoded keys (every ticket's client key) are only
// ever verified against, and Seal parses the few it is handed.
func DecodePublicKey(b []byte) (PublicKey, error) {
	if len(b) != PublicKeySize {
		return PublicKey{}, ErrBadKey
	}
	return PublicKey{
		Verify: ed25519.PublicKey(append([]byte(nil), b[:32]...)),
		Box:    append([]byte(nil), b[32:]...),
	}, nil
}

// Equal reports whether two public keys are identical.
func (p PublicKey) Equal(o PublicKey) bool {
	return hmac.Equal(p.Verify, o.Verify) && hmac.Equal(p.Box, o.Box)
}

// Seal encrypts plaintext to the recipient's box key (ECIES): ephemeral
// X25519 key, ECDH shared secret, HMAC-SHA-256 KDF, AES-128-GCM. Output
// layout: ephemeralPub(32) || nonce(12) || ciphertext.
func Seal(rng io.Reader, to PublicKey, plaintext []byte) ([]byte, error) {
	if rng == nil {
		rng = crand.Reader
	}
	if len(to.Box) != 32 {
		return nil, ErrBadKey
	}
	eph, err := newX25519Key(rng)
	if err != nil {
		return nil, fmt.Errorf("ephemeral keygen: %w", err)
	}
	peer := to.boxParsed
	if peer == nil {
		if peer, err = ecdh.X25519().NewPublicKey(to.Box); err != nil {
			return nil, ErrBadKey
		}
	}
	shared, err := eph.ECDH(peer)
	if err != nil {
		return nil, fmt.Errorf("ecdh: %w", err)
	}
	ephPub := eph.PublicKey().Bytes()
	gcm := kdf(shared, ephPub, to.Box).aead()
	out := make([]byte, 32+gcmNonceSize, 32+gcmNonceSize+len(plaintext)+gcmTagSize)
	copy(out, ephPub)
	nonce := out[32:]
	if _, err := io.ReadFull(rng, nonce); err != nil {
		return nil, err
	}
	return gcm.Seal(out, nonce, plaintext, nil), nil
}

// Open decrypts a Seal output addressed to k.
func (k *KeyPair) Open(sealed []byte) ([]byte, error) {
	if len(sealed) < 32+gcmNonceSize {
		return nil, ErrShortData
	}
	ephPub, err := ecdh.X25519().NewPublicKey(sealed[:32])
	if err != nil {
		return nil, ErrBadKey
	}
	shared, err := k.box.ECDH(ephPub)
	if err != nil {
		return nil, ErrDecrypt
	}
	gcm := kdf(shared, sealed[:32], k.boxPub[:]).aead()
	nonce, ct := sealed[32:32+gcmNonceSize], sealed[32+gcmNonceSize:]
	pt, err := gcm.Open(nil, nonce, ct, nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// MACKey is an HMAC-SHA-256 key held as RFC 2104's two key blocks: the
// key (hashed first if longer than SHA-256's 64-byte block) zero-padded
// to a block, XOR 0x36 and XOR 0x5c. With the blocks precomputed a MAC is
// two plain sha256.Sum256 calls — no keyed-hash object per message, which
// is what crypto/hmac allocates (≈ 500 B) for one-shot use.
type MACKey struct {
	ipad, opad [sha256.BlockSize]byte
}

// NewMACKey prepares key for Sum.
func NewMACKey(key []byte) MACKey {
	var k MACKey
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	copy(k.ipad[:], key)
	k.opad = k.ipad
	for i := range k.ipad {
		k.ipad[i] ^= 0x36
		k.opad[i] ^= 0x5c
	}
	return k
}

// Sum returns HMAC-SHA-256(key, msg). The inner hash input is assembled
// in a stack buffer that fits the messages this system MACs (the ECIES
// KDF's 96 bytes, a manager's handshake token); a longer msg spills to
// the heap and stays correct.
func (k *MACKey) Sum(msg []byte) [sha256.Size]byte {
	var stack [sha256.BlockSize + 256]byte
	inner := sha256.Sum256(append(append(stack[:0], k.ipad[:]...), msg...))
	var outer [sha256.BlockSize + sha256.Size]byte
	copy(outer[:], k.opad[:])
	copy(outer[sha256.BlockSize:], inner[:])
	return sha256.Sum256(outer[:])
}

var kdfKey = NewMACKey([]byte("p2pdrm-ecies-v1"))

// kdf derives an AES-128 key from the ECDH shared secret bound to both
// public keys: HMAC-SHA-256(label, shared || ephPub || rcptPub), truncated.
func kdf(shared, ephPub, rcptPub []byte) SymKey {
	var msg [3 * 32]byte // all three are 32 bytes: no allocation
	sum := kdfKey.Sum(append(append(append(msg[:0], shared...), ephPub...), rcptPub...))
	var k SymKey
	copy(k[:], sum[:])
	return k
}

// SymKey is an AES-128 key used for session keys and content keys.
type SymKey [SymKeySize]byte

// NewSymKey draws a fresh key from rng (nil means crypto/rand).
func NewSymKey(rng io.Reader) (SymKey, error) {
	if rng == nil {
		rng = crand.Reader
	}
	var k SymKey
	if _, err := io.ReadFull(rng, k[:]); err != nil {
		return SymKey{}, err
	}
	return k, nil
}

// AES-GCM framing sizes (the standard nonce and tag of cipher.NewGCM).
const (
	gcmNonceSize = 12
	gcmTagSize   = 16
)

// Seal encrypts plaintext under the key with AES-128-GCM, binding aad.
// Output layout: nonce(12) || ciphertext.
//
// This one-shot form rebuilds the AEAD on every call; hot paths that
// reuse a key should hold a Sealer instead.
func (k SymKey) Seal(rng io.Reader, plaintext, aad []byte) ([]byte, error) {
	return sealAEAD(k.aead(), rng, plaintext, aad)
}

// Open decrypts a Seal output, authenticating aad. A failure indicates a
// wrong key or tampered/hijacked content.
//
// Like Seal, this rebuilds the AEAD per call; see Sealer.
func (k SymKey) Open(sealed, aad []byte) ([]byte, error) {
	return openAEAD(nil, k.aead(), sealed, aad)
}

// aead builds the AES-128-GCM AEAD for the key. Neither constructor can
// fail for a fixed 16-byte key with the standard nonce size.
func (k SymKey) aead() cipher.AEAD {
	blk, _ := aes.NewCipher(k[:])
	gcm, _ := cipher.NewGCM(blk)
	return gcm
}

// Sealer returns the reusable form of the key. It stores the key only:
// the AES key schedule and GCM tables (~1.3 kB) are built by the first
// Seal, Open or SealAppend on the returned SealKey and reused by every
// later one. Session keys, content keys and per-account shp keys live for
// many operations, so holding a SealKey removes the dominant
// per-operation set-up cost; a key that is held but never used — a
// content key on a peer that receives no packets under it — costs its 16
// bytes and nothing else.
func (k SymKey) Sealer() *SealKey {
	return &SealKey{key: k}
}

// SealKey is a SymKey with its AEAD, built once on first use. It is safe
// for concurrent use: the build is guarded by a sync.Once and cipher.AEAD
// is stateless across calls.
type SealKey struct {
	key  SymKey
	once sync.Once
	aead cipher.AEAD // set by once; read through gcm() only
}

// gcm returns the key's AEAD, building it on the first call.
func (s *SealKey) gcm() cipher.AEAD {
	s.once.Do(s.build)
	return s.aead
}

func (s *SealKey) build() { s.aead = s.key.aead() }

// Key returns the underlying symmetric key.
func (s *SealKey) Key() SymKey { return s.key }

// Seal is SymKey.Seal without the per-call AEAD construction.
func (s *SealKey) Seal(rng io.Reader, plaintext, aad []byte) ([]byte, error) {
	return sealAEAD(s.gcm(), rng, plaintext, aad)
}

// Open is SymKey.Open without the per-call AEAD construction.
func (s *SealKey) Open(sealed, aad []byte) ([]byte, error) {
	return s.OpenAppend(nil, sealed, aad)
}

// OpenAppend is Open appending the plaintext to dst: with len(sealed)
// spare capacity in dst the open performs no allocation, so a receiver
// can decrypt every packet into one reused buffer. On failure it returns
// nil and dst's contents past len(dst) are unspecified.
func (s *SealKey) OpenAppend(dst, sealed, aad []byte) ([]byte, error) {
	return openAEAD(dst, s.gcm(), sealed, aad)
}

// SealedLen reports the sealed size of an n-byte plaintext: nonce plus
// ciphertext plus tag. Use it to size a SealAppend destination exactly.
func (s *SealKey) SealedLen(n int) int {
	return gcmNonceSize + n + gcmTagSize
}

// SealAppend seals plaintext and appends nonce||ciphertext||tag to dst,
// returning the extended slice. With dst preallocated to SealedLen
// spare capacity the seal performs no allocation — fan-out paths that
// seal one payload per peering edge build the full wire message in a
// single buffer this way.
func (s *SealKey) SealAppend(dst []byte, rng io.Reader, plaintext, aad []byte) ([]byte, error) {
	if rng == nil {
		rng = crand.Reader
	}
	off := len(dst)
	var zeros [gcmNonceSize]byte
	dst = append(dst, zeros[:]...)
	if _, err := io.ReadFull(rng, dst[off:off+gcmNonceSize]); err != nil {
		return nil, err
	}
	return s.gcm().Seal(dst, dst[off:off+gcmNonceSize], plaintext, aad), nil
}

func sealAEAD(gcm cipher.AEAD, rng io.Reader, plaintext, aad []byte) ([]byte, error) {
	if rng == nil {
		rng = crand.Reader
	}
	out := make([]byte, gcmNonceSize, gcmNonceSize+len(plaintext)+gcmTagSize)
	if _, err := io.ReadFull(rng, out); err != nil {
		return nil, err
	}
	return gcm.Seal(out, out[:gcmNonceSize], plaintext, aad), nil
}

func openAEAD(dst []byte, gcm cipher.AEAD, sealed, aad []byte) ([]byte, error) {
	if len(sealed) < gcmNonceSize {
		return nil, ErrShortData
	}
	pt, err := gcm.Open(dst, sealed[:gcmNonceSize], sealed[gcmNonceSize:], aad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// IsZero reports whether the key is all zeros (unset).
func (k SymKey) IsZero() bool {
	var z SymKey
	return k == z
}

// HashPassword computes shp, the secure hash of a user's password, used as
// the symmetric key protecting the login challenge (§IV-F1).
func HashPassword(password, salt string) SymKey {
	h := sha256.New()
	h.Write([]byte("p2pdrm-shp-v1"))
	h.Write([]byte(salt))
	h.Write([]byte{0})
	h.Write([]byte(password))
	var k SymKey
	copy(k[:], h.Sum(nil)[:SymKeySize])
	return k
}

// NewNonce draws a NonceSize-byte nonce from rng (nil means crypto/rand).
func NewNonce(rng io.Reader) ([NonceSize]byte, error) {
	if rng == nil {
		rng = crand.Reader
	}
	var n [NonceSize]byte
	if _, err := io.ReadFull(rng, n[:]); err != nil {
		return n, err
	}
	return n, nil
}

// ChecksumParams direct a client to checksum a window of its binary image
// with a salt — the paper's rudimentary remote attestation (§IV-F1).
type ChecksumParams struct {
	Offset uint32
	Length uint32
	Salt   [8]byte
}

// Encode serializes the params to 16 bytes.
func (p ChecksumParams) Encode() []byte {
	out := make([]byte, 16)
	binary.BigEndian.PutUint32(out[0:4], p.Offset)
	binary.BigEndian.PutUint32(out[4:8], p.Length)
	copy(out[8:], p.Salt[:])
	return out
}

// DecodeChecksumParams parses a 16-byte encoding.
func DecodeChecksumParams(b []byte) (ChecksumParams, error) {
	var p ChecksumParams
	if len(b) != 16 {
		return p, ErrShortData
	}
	p.Offset = binary.BigEndian.Uint32(b[0:4])
	p.Length = binary.BigEndian.Uint32(b[4:8])
	copy(p.Salt[:], b[8:16])
	return p, nil
}

// Checksum computes the attestation checksum of image under params. The
// window wraps around the image.
func Checksum(image []byte, p ChecksumParams) [32]byte {
	h := sha256.New()
	h.Write(p.Salt[:])
	if len(image) > 0 {
		// The window as contiguous runs: from the offset to the end of
		// the image, then whole images from the start.
		off := int(uint64(p.Offset) % uint64(len(image)))
		for left := int(p.Length); left > 0; off = 0 {
			seg := image[off:]
			if len(seg) > left {
				seg = seg[:left]
			}
			h.Write(seg)
			left -= len(seg)
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// SeededReader is a deterministic io.Reader over math/rand for
// simulations and tests only — NOT cryptographically secure.
type SeededReader struct {
	mu  sync.Mutex
	rng *mrand.Rand
}

// NewSeededReader creates a deterministic randomness source.
func NewSeededReader(seed int64) *SeededReader {
	return &SeededReader{rng: mrand.New(mrand.NewSource(seed))}
}

// Read fills b with deterministic pseudorandom bytes.
func (r *SeededReader) Read(b []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range b {
		b[i] = byte(r.rng.Intn(256))
	}
	return len(b), nil
}
