package cryptoutil

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// flip returns a copy of b with bit i flipped.
func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i/8] ^= 1 << (i % 8)
	return c
}

func TestMemoSignVerifyHitsOnce(t *testing.T) {
	kp, _ := NewKeyPair(testRNG())
	m := NewMemo()
	msg := []byte("nonce0123456789a")
	sig := m.Sign(kp, msg)
	if !m.VerifySig(kp.Public(), msg, sig) || m.Hits() != 1 || m.Misses() != 0 {
		t.Fatalf("first verify: hits %d misses %d, want one hit", m.Hits(), m.Misses())
	}
	// The hit dropped the record: a replay takes, and passes, the real check.
	if !m.VerifySig(kp.Public(), msg, sig) || m.Hits() != 1 || m.Misses() != 1 {
		t.Fatalf("replayed verify: hits %d misses %d, want the real check", m.Hits(), m.Misses())
	}
}

// TestMemoNeverVouchesForForgeries: with the genuine signature recorded,
// every altered or forged (pub, msg, sig) is a miss that fails the real
// check, and the genuine record survives them all.
func TestMemoNeverVouchesForForgeries(t *testing.T) {
	kp := katKeyPair(t)
	other, _ := NewKeyPair(testRNG())
	pub := kp.Public()
	msg := bytes.Repeat([]byte{0xa5}, 48) // a LOGIN2 nonce || checksum

	m := NewMemo()
	sig := m.Sign(kp, msg)
	m.Sign(kp, nil) // the published-signature forgeries are on the empty message
	m.Sign(other, msg)

	forgeries := []forgery{
		{"sig bit 0 flipped", msg, flip(sig, 0)},
		{"sig bit 255 flipped (R)", msg, flip(sig, 255)},
		{"sig bit 256 flipped (S)", msg, flip(sig, 256)},
		{"sig bit 511 flipped", msg, flip(sig, 511)},
		{"msg bit 0 flipped", flip(msg, 0), sig},
		{"msg bit 383 flipped", flip(msg, 383), sig},
		{"msg truncated", msg[:47], sig},
		{"msg extended", append(append([]byte(nil), msg...), 0), sig},
		{"another key's recorded signature", msg, other.Sign(msg)},
	}
	forgeries = append(forgeries, publicDataForgeries(t, pub, msg)...)
	for _, f := range forgeries {
		if m.VerifySig(pub, f.msg, f.sig) {
			t.Errorf("%s: memo verified a forgery", f.name)
		}
	}
	// The genuine signature presented under a flipped public key.
	for _, bit := range []int{0, 100, 255} {
		bad := PublicKey{Verify: flip(pub.Verify, bit), Box: pub.Box}
		if m.VerifySig(bad, msg, sig) {
			t.Errorf("pub bit %d flipped: memo verified", bit)
		}
	}
	if m.Hits() != 0 {
		t.Fatalf("hits = %d during forgeries, want 0", m.Hits())
	}
	if !m.VerifySig(pub, msg, sig) || m.Hits() != 1 {
		t.Fatalf("genuine signature after forgeries: hits %d, want its record to hit", m.Hits())
	}
}

// TestMemoOpenFailsLikePlainOpen: misaddressed and tampered payloads fail
// through the memo exactly as through plain Open, including when the
// ECDH record hits and only the KDF and tag check stand between them.
func TestMemoOpenFailsLikePlainOpen(t *testing.T) {
	rng := testRNG()
	kp, _ := NewKeyPair(rng)
	other, _ := NewKeyPair(rng)
	pt := []byte("0123456789abcdef")

	cases := []struct {
		name   string
		opener *KeyPair
		alter  func(m *Memo, sealed []byte) []byte
		hit    bool
	}{
		{"different key pair", other, func(_ *Memo, s []byte) []byte { return s }, false},
		{"nonce bit flipped", kp, func(_ *Memo, s []byte) []byte { return flip(s, 8*32) }, true},
		{"ciphertext bit flipped", kp, func(_ *Memo, s []byte) []byte { return flip(s, 8*(32+gcmNonceSize)) }, true},
		{"tag bit flipped", kp, func(_ *Memo, s []byte) []byte { return flip(s, 8*len(s)-1) }, true},
		{"ephPub swapped for another recorded seal's", kp, func(m *Memo, s []byte) []byte {
			s2, err := m.Seal(rng, kp.Public(), pt)
			if err != nil {
				t.Fatal(err)
			}
			return append(append([]byte(nil), s2[:32]...), s[32:]...)
		}, true},
	}
	for _, c := range cases {
		m := NewMemo()
		sealed, err := m.Seal(rng, kp.Public(), pt)
		if err != nil {
			t.Fatal(err)
		}
		bad := c.alter(m, sealed)
		_, plainErr := c.opener.Open(bad)
		got, memoErr := m.Open(c.opener, bad)
		if memoErr == nil || !errors.Is(memoErr, plainErr) {
			t.Errorf("%s: memo Open = %q, %v; plain Open err %v", c.name, got, memoErr, plainErr)
		}
		if hit := m.Hits() == 1; hit != c.hit {
			t.Errorf("%s: hits = %d, want hit %v", c.name, m.Hits(), c.hit)
		}
	}
}

// TestMemoMatchesPlainPrimitives: Sign and Seal through the memo emit the
// plain functions' bytes and consume the same rng bytes, and the memo's
// Open recovers what was sealed.
func TestMemoMatchesPlainPrimitives(t *testing.T) {
	kp, _ := NewKeyPair(testRNG())
	decoded, _ := DecodePublicKey(kp.Public().Encode())
	m := NewMemo()
	for i, msg := range [][]byte{nil, []byte("nonce"), bytes.Repeat([]byte{7}, memoMsgMax), bytes.Repeat([]byte{9}, memoMsgMax+1)} {
		if got, want := m.Sign(kp, msg), kp.Sign(msg); !bytes.Equal(got, want) {
			t.Errorf("msg %d: memo Sign differs from KeyPair.Sign", i)
		}
	}
	for _, to := range []PublicKey{kp.Public(), decoded} {
		plainRNG, memoRNG := NewSeededReader(42), NewSeededReader(42)
		for i := 0; i < 4; i++ {
			pt := bytes.Repeat([]byte{byte(i)}, 16*i)
			want, err1 := Seal(plainRNG, to, pt)
			got, err2 := m.Seal(memoRNG, to, pt)
			if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
				t.Fatalf("seal %d: memo %x, %v; plain %x, %v", i, got, err2, want, err1)
			}
			if opened, err := m.Open(kp, got); err != nil || !bytes.Equal(opened, pt) {
				t.Fatalf("seal %d: memo Open = %x, %v", i, opened, err)
			}
		}
		var a, b [8]byte
		plainRNG.Read(a[:])
		memoRNG.Read(b[:])
		if a != b {
			t.Fatal("memo Seal consumed a different number of rng bytes")
		}
	}
	if m.Misses() != 0 || m.Hits() != 8 {
		t.Fatalf("hits %d misses %d, want every Open to hit", m.Hits(), m.Misses())
	}
	if _, err := m.Seal(testRNG(), PublicKey{Box: []byte{1}}, nil); !errors.Is(err, ErrBadKey) {
		t.Fatalf("seal to malformed key: %v, want ErrBadKey", err)
	}
}

// TestMemoEvictedEntryTakesRealCheck: records past the bound are
// dropped oldest first, never held beyond memoCap per table, and a
// dropped record's input still gets the full check.
func TestMemoEvictedEntryTakesRealCheck(t *testing.T) {
	rng := testRNG()
	kp, _ := NewKeyPair(rng)
	m := NewMemo()
	msg := []byte("first")
	sig := m.Sign(kp, msg)
	sealed, _ := m.Seal(rng, kp.Public(), []byte("session"))
	for i := 0; i < memoCap; i++ {
		m.Sign(kp, []byte(fmt.Sprint(i)))
		m.Seal(rng, kp.Public(), nil)
	}
	for name, n := range map[string]int{
		"sigs":   len(m.sigs.cur) + len(m.sigs.old),
		"sealed": len(m.sealed.cur) + len(m.sealed.old),
	} {
		if n > memoCap {
			t.Errorf("%s holds %d records, bound %d", name, n, memoCap)
		}
	}
	if !m.VerifySig(kp.Public(), msg, sig) {
		t.Fatal("evicted genuine signature failed the real check")
	}
	if m.VerifySig(kp.Public(), msg, flip(sig, 3)) {
		t.Fatal("forgery of an evicted signature verified")
	}
	if pt, err := m.Open(kp, sealed); err != nil || string(pt) != "session" {
		t.Fatalf("evicted seal: Open = %q, %v", pt, err)
	}
	if m.Hits() != 0 || m.Misses() != 3 {
		t.Fatalf("hits %d misses %d, want three misses", m.Hits(), m.Misses())
	}
}

// TestMemoSealerSharesOnePerKey: every Sealer call for the same 16 bytes
// returns one SealKey, distinct keys — down to one flipped bit — never
// share, and a shared SealKey seals exactly the bytes a private one does
// and opens what either sealed.
func TestMemoSealerSharesOnePerKey(t *testing.T) {
	rng := testRNG()
	m := NewMemo()
	k, _ := NewSymKey(rng)
	near := k
	near[SymKeySize-1] ^= 1
	other, _ := NewSymKey(rng)

	shared := m.Sealer(k)
	if m.Sealer(k) != shared {
		t.Fatal("Sealer returned a second SealKey for a held key")
	}
	if shared.aead != nil {
		t.Fatal("Sealer built the AEAD before first use")
	}
	seen := map[*SealKey]SymKey{shared: k}
	for _, key := range []SymKey{near, other} {
		s := m.Sealer(key)
		if prev, dup := seen[s]; dup {
			t.Fatalf("keys %x and %x share a SealKey", prev, key)
		}
		seen[s] = key
		if s.Key() != key {
			t.Fatalf("Sealer(%x).Key() = %x", key, s.Key())
		}
	}

	payload, aad := bytes.Repeat([]byte{0x5a}, 300), []byte("aad")
	private := k.Sealer()
	for i := int64(0); i < 3; i++ {
		got, err1 := shared.Seal(NewSeededReader(i), payload, aad)
		want, err2 := private.Seal(NewSeededReader(i), payload, aad)
		if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
			t.Fatalf("seal %d: shared %x, %v; private %x, %v", i, got, err1, want, err2)
		}
		if pt, err := m.Sealer(k).Open(want, aad); err != nil || !bytes.Equal(pt, payload) {
			t.Fatalf("seal %d: shared Open of a private seal = %v", i, err)
		}
		if _, err := m.Sealer(near).Open(got, aad); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("seal %d: a one-bit-off key opened it: %v", i, err)
		}
	}
	var nilMemo *Memo
	if a, b := nilMemo.Sealer(k), nilMemo.Sealer(k); a == b || a.Key() != k {
		t.Fatal("nil memo shared a SealKey, or lost its key")
	}
}

// TestMemoSealerBoundAndPromotion: the SealKey table never holds more
// than sealerCap entries; a key taken again while held in the older
// generation moves to the newer and stays shared however many keys
// follow, and a key dropped from the table gets a fresh SealKey that
// still seals the same bytes.
func TestMemoSealerBoundAndPromotion(t *testing.T) {
	rng := testRNG()
	m := NewMemo()
	hot, _ := NewSymKey(rng)
	cold, _ := NewSymKey(rng)
	hotSK, coldSK := m.Sealer(hot), m.Sealer(cold)
	for i := 0; i < 4*sealerCap; i++ {
		k, _ := NewSymKey(rng)
		m.Sealer(k)
		if i%(sealerCap/4) == 0 && m.Sealer(hot) != hotSK {
			t.Fatalf("after %d keys the hot key got a second SealKey", i)
		}
		if n := len(m.sealers.cur) + len(m.sealers.old); n > sealerCap {
			t.Fatalf("table holds %d SealKeys, bound %d", n, sealerCap)
		}
	}
	fresh := m.Sealer(cold)
	if fresh == coldSK {
		t.Fatal("a key untouched for 4×sealerCap insertions is still held")
	}
	a, _ := fresh.Seal(NewSeededReader(1), []byte("x"), nil)
	b, _ := coldSK.Seal(NewSeededReader(1), []byte("x"), nil)
	if !bytes.Equal(a, b) {
		t.Fatal("a re-taken key seals differently")
	}
}

// TestMemoSealerAllocBudget: taking a key the memo holds allocates
// nothing — no SealKey, no AEAD — whether or not its AEAD is built.
func TestMemoSealerAllocBudget(t *testing.T) {
	m := NewMemo()
	k, _ := NewSymKey(testRNG())
	held := m.Sealer(k)
	var got *SealKey // escapes, so a fresh SealKey would show
	take := func() { got = m.Sealer(k) }
	if n := testing.AllocsPerRun(100, take); n != 0 || got != held {
		t.Fatalf("second Sealer of a held key allocates %.0f objects (shared %v), want 0", n, got == held)
	}
	if _, err := held.Seal(testRNG(), []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, take); n != 0 || got != held {
		t.Fatalf("Sealer of a held, built key allocates %.0f objects (shared %v), want 0", n, got == held)
	}
}

// TestMemoOpenBuildsNoAEAD: opening a payload the memo sealed reuses the
// AEAD Seal derived — it allocates the plaintext and nothing else, where
// a plain Open pays the X25519 ladder and a fresh AES-GCM — and still
// opens exactly what was sealed.
func TestMemoOpenBuildsNoAEAD(t *testing.T) {
	rng := testRNG()
	kp, _ := NewKeyPair(rng)
	m := NewMemo()
	const runs = 50
	pt := []byte("0123456789abcdef")
	sealed := make([][]byte, runs+1) // AllocsPerRun calls f runs+1 times
	for i := range sealed {
		sealed[i], _ = m.Seal(rng, kp.Public(), pt)
	}
	next := 0
	memoAllocs := testing.AllocsPerRun(runs, func() {
		got, err := m.Open(kp, sealed[next])
		if err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("Open %d = %x, %v", next, got, err)
		}
		next++
	})
	if m.Hits() != runs+1 || m.Misses() != 0 {
		t.Fatalf("hits %d misses %d, want every Open to hit", m.Hits(), m.Misses())
	}
	if memoAllocs != 1 {
		t.Fatalf("Memo.Open after Memo.Seal allocates %.0f objects, want 1 (the plaintext)", memoAllocs)
	}
	plainAllocs := testing.AllocsPerRun(runs, func() { _, _ = kp.Open(sealed[0]) })
	if plainAllocs <= memoAllocs+1 {
		t.Fatalf("plain Open allocates %.0f objects, memo Open %.0f: the comparison shows nothing", plainAllocs, memoAllocs)
	}
}

func TestNilMemoRunsPlainPrimitives(t *testing.T) {
	rng := testRNG()
	kp, _ := NewKeyPair(rng)
	var m *Memo
	sig := m.Sign(kp, []byte("n"))
	if !m.VerifySig(kp.Public(), []byte("n"), sig) || m.VerifySig(kp.Public(), []byte("m"), sig) {
		t.Fatal("nil memo VerifySig disagrees with VerifySig")
	}
	sealed, err := m.Seal(rng, kp.Public(), []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := m.Open(kp, sealed); err != nil || string(pt) != "k" {
		t.Fatalf("nil memo Open = %q, %v", pt, err)
	}
}

// TestMemoConcurrent: goroutines sign, verify, seal and open through one
// memo — some verifying the others' signatures, some opening the others'
// seals, some presenting forgeries — and take overlapping symmetric keys
// from it, sealing under them and opening each other's payloads; every
// answer is the plain one, and each key has one SealKey.
func TestMemoConcurrent(t *testing.T) {
	const workers, rounds = 8, 40
	m := NewMemo()
	keys := make([]*KeyPair, workers)
	for i := range keys {
		keys[i], _ = NewKeyPair(NewSeededReader(int64(i)))
	}
	syms := make([]SymKey, 5)
	for i := range syms {
		syms[i], _ = NewSymKey(NewSeededReader(int64(50 + i)))
	}
	sealers := make([][]*SealKey, workers) // per worker: the SealKey it got for each sym
	symSealed := make(chan []byte, workers*rounds)
	type signed struct{ msg, sig []byte }
	sigs := make(chan signed, workers*rounds)
	seals := make(chan []byte, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := NewSeededReader(int64(100 + w))
			kp := keys[w%2] // two signers shared by everyone
			for r := 0; r < rounds; r++ {
				msg := []byte(fmt.Sprintf("nonce %d", r%5)) // overlapping messages
				sigs <- signed{msg, m.Sign(kp, msg)}
				sealed, err := m.Seal(rng, keys[0].Public(), msg)
				if err != nil {
					t.Error(err)
					return
				}
				seals <- sealed
				s := <-sigs
				signer := keys[0].Public()
				if !signer.VerifySig(s.msg, s.sig) {
					signer = keys[1].Public()
				}
				if !m.VerifySig(signer, s.msg, s.sig) {
					t.Error("genuine signature failed")
				}
				if m.VerifySig(signer, s.msg, flip(s.sig, r)) {
					t.Error("forgery verified")
				}
				if pt, err := m.Open(keys[0], <-seals); err != nil || !bytes.HasPrefix(pt, []byte("nonce ")) {
					t.Errorf("Open = %q, %v", pt, err)
				}
				sk := m.Sealer(syms[(w+r)%len(syms)])
				sealers[w] = append(sealers[w], sk)
				ct, err := sk.Seal(rng, msg, nil)
				if err != nil {
					t.Error(err)
					return
				}
				symSealed <- ct
				got := <-symSealed
				opened := false
				for _, k := range syms {
					if pt, err := m.Sealer(k).Open(got, nil); err == nil {
						opened = bytes.HasPrefix(pt, []byte("nonce "))
						break
					}
				}
				if !opened {
					t.Error("no shared key opened a payload sealed under one of them")
				}
			}
		}(w)
	}
	wg.Wait()
	one := make(map[SymKey]*SealKey)
	for _, got := range sealers {
		for _, sk := range got {
			if prev, ok := one[sk.Key()]; ok && prev != sk {
				t.Fatalf("key %x: two SealKeys", sk.Key())
			}
			one[sk.Key()] = sk
		}
	}
}

// Hits reports how many checks a record answered.
func (m *Memo) Hits() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits
}

// Misses reports how many checks found no record and ran in full.
func (m *Memo) Misses() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.misses
}
