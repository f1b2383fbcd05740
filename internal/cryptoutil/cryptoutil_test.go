package cryptoutil

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func testRNG() *SeededReader { return NewSeededReader(1) }

func TestKeyPairSignVerify(t *testing.T) {
	kp, err := NewKeyPair(testRNG())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("channel ticket body")
	sig := kp.Sign(msg)
	if !kp.Public().VerifySig(msg, sig) {
		t.Fatal("valid signature rejected")
	}
	msg[0] ^= 1
	if kp.Public().VerifySig(msg, sig) {
		t.Fatal("tampered message accepted")
	}
}

func TestVerifySigWrongKey(t *testing.T) {
	rng := testRNG()
	a, _ := NewKeyPair(rng)
	b, _ := NewKeyPair(rng)
	sig := a.Sign([]byte("m"))
	if b.Public().VerifySig([]byte("m"), sig) {
		t.Fatal("signature verified under wrong key")
	}
}

func TestVerifySigMalformed(t *testing.T) {
	kp, _ := NewKeyPair(testRNG())
	if kp.Public().VerifySig([]byte("m"), []byte("short")) {
		t.Fatal("short signature accepted")
	}
	var empty PublicKey
	if empty.VerifySig([]byte("m"), make([]byte, SignatureSize)) {
		t.Fatal("empty key verified")
	}
}

func TestPublicKeyEncodeDecode(t *testing.T) {
	kp, _ := NewKeyPair(testRNG())
	enc := kp.Public().Encode()
	if len(enc) != PublicKeySize {
		t.Fatalf("encoded size = %d, want %d", len(enc), PublicKeySize)
	}
	dec, err := DecodePublicKey(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), kp.Public().Encode()) {
		t.Fatal("decode(encode) != original")
	}
	if _, err := DecodePublicKey(enc[:10]); !errors.Is(err, ErrBadKey) {
		t.Fatalf("short decode err = %v, want ErrBadKey", err)
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	rng := testRNG()
	kp, _ := NewKeyPair(rng)
	pt := []byte("session key material")
	ct, err := Seal(rng, kp.Public(), pt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := kp.Open(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("got %q, want %q", got, pt)
	}
}

func TestSealOpenWrongRecipient(t *testing.T) {
	rng := testRNG()
	alice, _ := NewKeyPair(rng)
	mallory, _ := NewKeyPair(rng)
	ct, _ := Seal(rng, alice.Public(), []byte("secret"))
	if _, err := mallory.Open(ct); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong recipient opened: err = %v", err)
	}
}

func TestOpenTamperedCiphertext(t *testing.T) {
	rng := testRNG()
	kp, _ := NewKeyPair(rng)
	ct, _ := Seal(rng, kp.Public(), []byte("secret"))
	ct[len(ct)-1] ^= 1
	if _, err := kp.Open(ct); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("tampered ciphertext opened: err = %v", err)
	}
}

func TestOpenTruncated(t *testing.T) {
	kp, _ := NewKeyPair(testRNG())
	if _, err := kp.Open([]byte("tiny")); !errors.Is(err, ErrShortData) {
		t.Fatalf("err = %v, want ErrShortData", err)
	}
}

func TestSymSealOpen(t *testing.T) {
	rng := testRNG()
	k, err := NewSymKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	aad := []byte{7} // e.g. a content-key serial
	ct, err := k.Seal(rng, []byte("video payload"), aad)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := k.Open(ct, aad)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "video payload" {
		t.Fatalf("pt = %q", pt)
	}
}

func TestSymOpenWrongAAD(t *testing.T) {
	rng := testRNG()
	k, _ := NewSymKey(rng)
	ct, _ := k.Seal(rng, []byte("x"), []byte{1})
	if _, err := k.Open(ct, []byte{2}); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong AAD accepted: err = %v", err)
	}
}

func TestSymOpenWrongKey(t *testing.T) {
	rng := testRNG()
	k1, _ := NewSymKey(rng)
	k2, _ := NewSymKey(rng)
	ct, _ := k1.Seal(rng, []byte("x"), nil)
	if _, err := k2.Open(ct, nil); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong key accepted: err = %v", err)
	}
}

func TestSymOpenShort(t *testing.T) {
	k, _ := NewSymKey(testRNG())
	if _, err := k.Open([]byte{1, 2, 3}, nil); !errors.Is(err, ErrShortData) {
		t.Fatalf("err = %v, want ErrShortData", err)
	}
}

func TestSymKeyIsZero(t *testing.T) {
	var z SymKey
	if !z.isZero() {
		t.Fatal("zero key not IsZero")
	}
	k, _ := NewSymKey(testRNG())
	if k.isZero() {
		t.Fatal("random key IsZero")
	}
}

func TestHashPasswordStability(t *testing.T) {
	a := HashPassword("hunter2", "user@example.com")
	b := HashPassword("hunter2", "user@example.com")
	if a != b {
		t.Fatal("same inputs hashed differently")
	}
	if a == HashPassword("hunter3", "user@example.com") {
		t.Fatal("different passwords collided")
	}
	if a == HashPassword("hunter2", "other@example.com") {
		t.Fatal("different salts collided")
	}
}

func TestChecksumParamsEncodeDecode(t *testing.T) {
	p := ChecksumParams{Offset: 1234, Length: 5678, Salt: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}}
	dec, err := DecodeChecksumParams(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec != p {
		t.Fatalf("decode(encode) = %+v, want %+v", dec, p)
	}
	if _, err := DecodeChecksumParams([]byte{1}); err == nil {
		t.Fatal("short decode accepted")
	}
}

func TestChecksumDependsOnImageAndParams(t *testing.T) {
	img := bytes.Repeat([]byte{0xAB, 0xCD}, 100)
	p := ChecksumParams{Offset: 3, Length: 50, Salt: [8]byte{9}}
	c1 := Checksum(img, p)
	img2 := append([]byte(nil), img...)
	img2[10] ^= 1
	if Checksum(img2, p) == c1 {
		t.Fatal("modified image has same checksum")
	}
	p2 := p
	p2.Salt[0] = 10
	if Checksum(img, p2) == c1 {
		t.Fatal("different salt has same checksum")
	}
}

func TestChecksumEmptyImage(t *testing.T) {
	p := ChecksumParams{Offset: 0, Length: 10, Salt: [8]byte{1}}
	_ = Checksum(nil, p) // must not panic
}

func TestSeededReaderDeterministic(t *testing.T) {
	a := make([]byte, 32)
	b := make([]byte, 32)
	_, _ = NewSeededReader(42).Read(a)
	_, _ = NewSeededReader(42).Read(b)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different bytes")
	}
	_, _ = NewSeededReader(43).Read(b)
	if bytes.Equal(a, b) {
		t.Fatal("different seeds produced identical bytes")
	}
}

// Property: Seal/Open round-trips arbitrary payloads.
func TestSealOpenProperty(t *testing.T) {
	rng := testRNG()
	kp, _ := NewKeyPair(rng)
	f := func(pt []byte) bool {
		ct, err := Seal(rng, kp.Public(), pt)
		if err != nil {
			return false
		}
		got, err := kp.Open(ct)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: symmetric Seal/Open round-trips arbitrary payload+AAD.
func TestSymSealOpenProperty(t *testing.T) {
	rng := testRNG()
	k, _ := NewSymKey(rng)
	f := func(pt, aad []byte) bool {
		ct, err := k.Seal(rng, pt, aad)
		if err != nil {
			return false
		}
		got, err := k.Open(ct, aad)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
