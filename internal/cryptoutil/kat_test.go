package cryptoutil

import (
	"bytes"
	"encoding/hex"
	"math/big"
	"testing"
)

// Known-answer tests: the primitives this package wraps are pinned to the
// published vectors, reached through the package's own entry points
// (NewKeyPair reading a fixed stream, Sign, VerifySig, Seal, Open). A
// stand-in that reads the same bytes and emits the same sizes but is not
// Ed25519 / X25519 fails here.

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// RFC 8032 §7.1, TEST 1 (empty message).
const (
	rfc8032Seed = "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
	rfc8032Pub  = "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
	rfc8032Sig  = "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
)

// RFC 7748 §6.1: Alice's and Bob's X25519 key pairs and their shared
// secret.
const (
	rfc7748AlicePriv = "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"
	rfc7748AlicePub  = "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
	rfc7748BobPriv   = "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"
	rfc7748BobPub    = "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
	rfc7748Shared    = "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
)

// katKeyPair builds the key pair whose Ed25519 half is RFC 8032 TEST 1
// and whose X25519 half is RFC 7748's Alice: NewKeyPair reads the
// Ed25519 seed first, then the X25519 scalar, 32 bytes each.
func katKeyPair(t *testing.T) *KeyPair {
	t.Helper()
	stream := append(unhex(t, rfc8032Seed), unhex(t, rfc7748AlicePriv)...)
	kp, err := NewKeyPair(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

// TestEd25519KnownAnswer: RFC 8032 §7.1 TEST 1 through NewKeyPair, Sign
// and VerifySig.
func TestEd25519KnownAnswer(t *testing.T) {
	kp := katKeyPair(t)
	pub := kp.Public()
	if got := hex.EncodeToString(pub.Verify); got != rfc8032Pub {
		t.Fatalf("public key = %s, RFC 8032 TEST 1 says %s", got, rfc8032Pub)
	}
	sig := kp.Sign(nil)
	if got := hex.EncodeToString(sig); got != rfc8032Sig {
		t.Fatalf("signature = %s, RFC 8032 TEST 1 says %s", got, rfc8032Sig)
	}
	if !pub.VerifySig(nil, unhex(t, rfc8032Sig)) {
		t.Fatal("RFC 8032 TEST 1 signature rejected")
	}
	if pub.VerifySig([]byte{0}, unhex(t, rfc8032Sig)) {
		t.Fatal("RFC 8032 TEST 1 signature accepted for another message")
	}
}

// TestX25519KnownAnswer: RFC 7748 §6.1 through a key pair's box key and
// Seal's ephemeral public key. With Alice as recipient and Bob's scalar
// as Seal's ephemeral draw, the sealed payload must be exactly the KDF of
// the RFC's shared secret applied to the plaintext — so the ECDH inside
// Seal is X25519 — and Alice's Open must recover it.
func TestX25519KnownAnswer(t *testing.T) {
	alice := katKeyPair(t)
	pub := alice.Public()
	if got := hex.EncodeToString(pub.Box); got != rfc7748AlicePub {
		t.Fatalf("box key = %s, RFC 7748 Alice says %s", got, rfc7748AlicePub)
	}
	nonce := bytes.Repeat([]byte{0x5a}, gcmNonceSize)
	stream := append(unhex(t, rfc7748BobPriv), nonce...)
	pt := []byte("session key material")
	sealed, err := Seal(bytes.NewReader(stream), pub, pt)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(sealed[:32]); got != rfc7748BobPub {
		t.Fatalf("ephemeral key = %s, RFC 7748 Bob says %s", got, rfc7748BobPub)
	}
	if !bytes.Equal(sealed[32:32+gcmNonceSize], nonce) {
		t.Fatal("Seal did not take its nonce from the stream after the ephemeral scalar")
	}
	want := kdf(unhex(t, rfc7748Shared), unhex(t, rfc7748BobPub), unhex(t, rfc7748AlicePub)).
		aead().Seal(nil, nonce, pt, nil)
	if !bytes.Equal(sealed[32+gcmNonceSize:], want) {
		t.Fatal("sealed payload is not keyed by the RFC 7748 shared secret")
	}
	got, err := alice.Open(sealed)
	if err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("Open = %q, %v; want %q", got, err, pt)
	}
}

// forgery is a signature attempt: sig presented as a signature on msg.
type forgery struct {
	name string
	msg  []byte
	sig  []byte
}

// publicDataForgeries builds the signatures an attacker can make from
// pub and the RFC 8032 published signature (on the empty message) alone,
// each presented on msg or on the empty message.
func publicDataForgeries(t *testing.T, pub PublicKey, msg []byte) []forgery {
	t.Helper()
	genuine := unhex(t, rfc8032Sig)

	// The group order L of edwards25519; a signature's S is a
	// little-endian scalar that must be below it.
	l, _ := new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)
	le := func(b []byte) *big.Int {
		r := make([]byte, len(b))
		for i := range b {
			r[len(b)-1-i] = b[i]
		}
		return new(big.Int).SetBytes(r)
	}
	toLE := func(n *big.Int) []byte {
		be := n.FillBytes(make([]byte, 32))
		out := make([]byte, 32)
		for i := range be {
			out[31-i] = be[i]
		}
		return out
	}
	identity := make([]byte, 32)
	identity[0] = 1
	zero := make([]byte, 32)
	malleated := append(append([]byte(nil), genuine[:32]...),
		toLE(new(big.Int).Add(le(genuine[32:]), l))...)

	forgeries := []forgery{
		{"all zero", msg, make([]byte, SignatureSize)},
		{"identity R, zero S", msg, append(append([]byte(nil), identity...), zero...)},
		{"public key as R, zero S", msg, append(append([]byte(nil), pub.Verify...), zero...)},
		{"published signature on another message", msg, genuine},
		{"published R, zero S", nil, append(append([]byte(nil), genuine[:32]...), zero...)},
		{"published signature with S+L", nil, malleated},
	}
	for _, f := range forgeries {
		if len(f.sig) != SignatureSize {
			t.Fatalf("%s: built %d bytes", f.name, len(f.sig))
		}
	}
	return forgeries
}

// TestForgedSignatureFromPublicDataFails: signatures an attacker can
// build from the public key and published signatures alone must all fail
// VerifySig.
func TestForgedSignatureFromPublicDataFails(t *testing.T) {
	pub := katKeyPair(t).Public()
	for _, f := range publicDataForgeries(t, pub, []byte("channel ticket body")) {
		if pub.VerifySig(f.msg, f.sig) {
			t.Errorf("%s: forged signature verified", f.name)
		}
	}
}
