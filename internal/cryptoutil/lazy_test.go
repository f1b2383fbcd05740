package cryptoutil

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	mrand "math/rand"
	"sync"
	"testing"
)

// kdfHMACRef is the KDF as it was written before the stack form: a keyed
// crypto/hmac over the three inputs. Test-only reference.
func kdfHMACRef(shared, ephPub, rcptPub []byte) SymKey {
	mac := hmac.New(sha256.New, []byte("p2pdrm-ecies-v1"))
	mac.Write(shared)
	mac.Write(ephPub)
	mac.Write(rcptPub)
	var k SymKey
	copy(k[:], mac.Sum(nil)[:SymKeySize])
	return k
}

// TestKDFMatchesHMAC: the two-Sum256 derivation is HMAC-SHA-256, bit for
// bit, over random 32-byte triples — and allocates nothing.
func TestKDFMatchesHMAC(t *testing.T) {
	rng := mrand.New(mrand.NewSource(24))
	var in [3][32]byte
	for i := 0; i < 500; i++ {
		for j := range in {
			rng.Read(in[j][:])
		}
		got := kdf(in[0][:], in[1][:], in[2][:])
		if want := kdfHMACRef(in[0][:], in[1][:], in[2][:]); got != want {
			t.Fatalf("triple %d: kdf = %x, hmac reference = %x", i, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = kdf(in[0][:], in[1][:], in[2][:]) }); n != 0 {
		t.Fatalf("kdf allocates %.0f objects per call, want 0", n)
	}
}

// TestMACKeyMatchesHMAC: MACKey.Sum is crypto/hmac's HMAC-SHA-256 for
// keys shorter than, equal to and longer than the hash block (the longer
// one is hashed first) and messages on both sides of the stack buffer.
func TestMACKeyMatchesHMAC(t *testing.T) {
	rng := mrand.New(mrand.NewSource(2104))
	for _, keyLen := range []int{0, 1, 15, 64, 65, 200} {
		key := make([]byte, keyLen)
		rng.Read(key)
		mk := NewMACKey(key)
		for _, n := range []int{0, 1, 96, 255, 256, 257, 4000} {
			msg := make([]byte, n)
			rng.Read(msg)
			ref := hmac.New(sha256.New, key)
			ref.Write(msg)
			if got := mk.Sum(msg); !bytes.Equal(got[:], ref.Sum(nil)) {
				t.Fatalf("key %d B, msg %d B: MACKey.Sum differs from crypto/hmac", keyLen, n)
			}
		}
	}
}

// TestSealToDecodedKey: a key that went through Encode/DecodePublicKey
// carries no parsed X25519 form, and Seal to it still opens.
func TestSealToDecodedKey(t *testing.T) {
	rng := testRNG()
	kp, _ := NewKeyPair(rng)
	dec, err := DecodePublicKey(kp.Public().Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.boxParsed != nil {
		t.Fatal("DecodePublicKey parsed the X25519 half eagerly")
	}
	ct, err := Seal(rng, dec, []byte("session"))
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := kp.Open(ct); err != nil || string(pt) != "session" {
		t.Fatalf("Open = %q, %v", pt, err)
	}
	// Same RNG stream, parsed and unparsed recipient: identical bytes.
	a, _ := Seal(NewSeededReader(9), dec, []byte("x"))
	b, _ := Seal(NewSeededReader(9), kp.Public(), []byte("x"))
	if !bytes.Equal(a, b) {
		t.Fatal("Seal output depends on whether the recipient key was pre-parsed")
	}
}

// TestSealKeyLazy pins the lazy contract: holding a key costs one small
// object and no cipher set-up; the first use — from any number of
// goroutines — builds exactly one AEAD; use after that allocates only
// what it returns.
func TestSealKeyLazy(t *testing.T) {
	key, _ := NewSymKey(testRNG())

	var held *SealKey
	allocs := testing.AllocsPerRun(100, func() {
		held = key.Sealer()
		if held.Key() != key || held.SealedLen(100) != 12+100+16 {
			t.Fatal("Key/SealedLen wrong on an unused SealKey")
		}
	})
	if allocs != 1 {
		t.Fatalf("Sealer()+Key()+SealedLen allocate %.0f objects, want 1", allocs)
	}
	if held.aead != nil {
		t.Fatal("Sealer()/Key()/SealedLen built the AEAD")
	}

	// First use from 16 goroutines at once (run under -race): one AEAD,
	// every goroutine's plaintext intact.
	sk := key.Sealer()
	sealed, err := key.Seal(NewSeededReader(5), []byte("frame"), []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	seen := make([]any, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < workers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			pt, err := sk.Open(sealed, []byte("aad"))
			if err != nil || string(pt) != "frame" {
				t.Errorf("goroutine %d: Open = %q, %v", i, pt, err)
			}
			seen[i] = sk.gcm()
		}(i)
	}
	start.Done()
	done.Wait()
	for i := range seen {
		if seen[i] != seen[0] {
			t.Fatalf("goroutine %d saw a different AEAD than goroutine 0", i)
		}
	}

	// Byte-identical to the one-shot form on the same RNG stream.
	got, _ := sk.Seal(NewSeededReader(5), []byte("frame"), []byte("aad"))
	if !bytes.Equal(got, sealed) {
		t.Fatal("SealKey.Seal differs from SymKey.Seal on the same RNG stream")
	}

	// SealAppend with capacity: no allocation, built or not.
	fresh := key.Sealer()
	rng := NewSeededReader(3)
	payload := make([]byte, 512)
	buf := make([]byte, 0, fresh.SealedLen(len(payload)))
	if _, err := fresh.SealAppend(buf, rng, payload, nil); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := fresh.SealAppend(buf[:0], rng, payload, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SealAppend allocates %.0f objects per call with capacity, want 0", n)
	}
}

// checksumPerByteRef is Checksum as it was written before the segment
// form: one hash Write per window byte. Test-only reference.
func checksumPerByteRef(image []byte, p ChecksumParams) [32]byte {
	h := sha256.New()
	h.Write(p.Salt[:])
	if len(image) > 0 {
		for i := uint32(0); i < p.Length; i++ {
			h.Write([]byte{image[(int(p.Offset)+int(i))%len(image)]})
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestChecksumMatchesPerByteReference(t *testing.T) {
	img := make([]byte, 1000)
	mrand.New(mrand.NewSource(3)).Read(img)
	salt := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	cases := []struct {
		name   string
		image  []byte
		offset uint32
		length uint32
	}{
		{"inside", img, 10, 100},
		{"whole image", img, 0, 1000},
		{"offset near the end wraps", img, 990, 64},
		{"offset at the last byte", img, 999, 2},
		{"offset beyond the image", img, 123456, 77},
		{"offset near uint32 max", img, 1<<32 - 3, 50},
		{"length over the image wraps twice", img, 500, 2600},
		{"length zero", img, 17, 0},
		{"one-byte image", img[:1], 5, 40},
		{"empty image", nil, 3, 10},
	}
	for _, tc := range cases {
		p := ChecksumParams{Offset: tc.offset, Length: tc.length, Salt: salt}
		if got, want := Checksum(tc.image, p), checksumPerByteRef(tc.image, p); got != want {
			t.Errorf("%s: Checksum = %x, per-byte reference = %x", tc.name, got, want)
		}
	}
}
