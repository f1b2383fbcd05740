package ticket

import (
	"bytes"
	"errors"
	"fmt"
	mrand "math/rand"
	"reflect"
	"testing"
	"time"

	"p2pdrm/internal/attr"
	"p2pdrm/internal/cryptoutil"
)

// TestVerifierMatchesUncached is the cache-transparency property test:
// for valid, expired, and bit-flipped tickets — of both kinds — the
// cached path must return byte-identical results and identical errors to
// the package-level verify functions, on both the cold (miss) and warm
// (hit) pass.
func TestVerifierMatchesUncached(t *testing.T) {
	rng := cryptoutil.NewSeededReader(7)
	mgr, err := cryptoutil.NewKeyPair(rng)
	if err != nil {
		t.Fatal(err)
	}
	client, err := cryptoutil.NewKeyPair(rng)
	if err != nil {
		t.Fatal(err)
	}
	prng := mrand.New(mrand.NewSource(7))

	type blobCase struct {
		name string
		blob []byte
	}
	var cases []blobCase

	// Valid and expired tickets of both kinds. Expiry handling lives in
	// ValidAt, outside the Verifier, so an "expired" ticket must verify
	// identically on both paths.
	for i := 0; i < 8; i++ {
		expiry := tEnd
		kind := "valid"
		if i%2 == 1 {
			expiry = tStart.Add(-time.Hour) // already expired
			kind = "expired"
		}
		ut := &UserTicket{
			UserIN:    uint64(1000 + i),
			ClientKey: client.Public(),
			Start:     tStart,
			Expiry:    expiry,
			Attrs: attr.List{
				{Name: attr.NameNetAddr, Value: attr.Value(fmt.Sprintf("r1.as%d.h7", i))},
				{Name: attr.NameRegion, Value: "100"},
			},
		}
		cases = append(cases, blobCase{fmt.Sprintf("user/%s/%d", kind, i), SignUser(ut, mgr)})
		ct := &ChannelTicket{
			UserIN: uint64(2000 + i), ChannelID: fmt.Sprintf("ch%d", i),
			NetAddr: "r1.as1.h1", ClientKey: client.Public(),
			Start: tStart, Expiry: expiry, Renewal: i%4 == 2,
		}
		cases = append(cases, blobCase{fmt.Sprintf("channel/%s/%d", kind, i), SignChannel(ct, mgr)})
	}
	// Bit-flipped mutants: flip one random bit anywhere in a valid blob
	// (body, signature, or type byte).
	base := cases[:len(cases):len(cases)]
	for i, c := range base {
		mut := append([]byte(nil), c.blob...)
		pos := prng.Intn(len(mut))
		mut[pos] ^= 1 << uint(prng.Intn(8))
		cases = append(cases, blobCase{fmt.Sprintf("bitflip/%d/pos%d", i, pos), mut})
	}
	// Truncated and empty blobs.
	cases = append(cases,
		blobCase{"empty", nil},
		blobCase{"truncated", base[0].blob[:len(base[0].blob)/2]},
	)

	v := NewVerifier(0)
	pub := mgr.Public()
	for _, c := range cases {
		// Two passes: the first may populate the cache, the second must
		// hit it for successes — and both must match the uncached result.
		for pass := 0; pass < 2; pass++ {
			wantUT, wantUErr := VerifyUser(c.blob, pub)
			gotUT, gotUErr := v.VerifyUser(c.blob, pub)
			if !errors.Is(gotUErr, wantUErr) && !errors.Is(wantUErr, gotUErr) {
				t.Fatalf("%s pass %d: VerifyUser err = %v, uncached %v", c.name, pass, gotUErr, wantUErr)
			}
			if !reflect.DeepEqual(gotUT, wantUT) {
				t.Fatalf("%s pass %d: VerifyUser = %+v, uncached %+v", c.name, pass, gotUT, wantUT)
			}
			wantCT, wantCErr := VerifyChannel(c.blob, pub)
			gotCT, gotCErr := v.VerifyChannel(c.blob, pub)
			if !errors.Is(gotCErr, wantCErr) && !errors.Is(wantCErr, gotCErr) {
				t.Fatalf("%s pass %d: VerifyChannel err = %v, uncached %v", c.name, pass, gotCErr, wantCErr)
			}
			if !reflect.DeepEqual(gotCT, wantCT) {
				t.Fatalf("%s pass %d: VerifyChannel = %+v, uncached %+v", c.name, pass, gotCT, wantCT)
			}
		}
	}
	if v.Hits() == 0 {
		t.Fatal("second passes never hit the cache")
	}
}

// TestVerifierForgedNeverCached pins the security property directly: a
// blob that fails verification must never be served from the cache, even
// if a near-identical valid blob was cached first.
func TestVerifierForgedNeverCached(t *testing.T) {
	rng := cryptoutil.NewSeededReader(9)
	mgr, _ := cryptoutil.NewKeyPair(rng)
	other, _ := cryptoutil.NewKeyPair(rng)
	client, _ := cryptoutil.NewKeyPair(rng)
	ct := &ChannelTicket{
		UserIN: 1, ChannelID: "ch", NetAddr: "r1.as1.h1",
		ClientKey: client.Public(), Start: tStart, Expiry: tEnd,
	}
	blob := SignChannel(ct, mgr)
	v := NewVerifier(0)
	if _, err := v.VerifyChannel(blob, mgr.Public()); err != nil {
		t.Fatal(err)
	}
	// Every single-bit mutation of the cached blob must fail.
	for pos := 0; pos < len(blob); pos++ {
		mut := append([]byte(nil), blob...)
		mut[pos] ^= 0x01
		if _, err := v.VerifyChannel(mut, mgr.Public()); err == nil {
			t.Fatalf("bit flip at %d verified through the cache", pos)
		}
	}
	// The same bytes under a different claimed signer must also fail:
	// the cache key binds the signer key.
	if _, err := v.VerifyChannel(blob, other.Public()); err == nil {
		t.Fatal("wrong-signer verify succeeded via cache")
	}
	// And the original must still hit.
	before := v.Hits()
	if _, err := v.VerifyChannel(blob, mgr.Public()); err != nil {
		t.Fatal(err)
	}
	if v.Hits() != before+1 {
		t.Fatal("original blob stopped hitting the cache")
	}
}

// TestVerifierEviction checks the LRU bound holds under churn.
func TestVerifierEviction(t *testing.T) {
	rng := cryptoutil.NewSeededReader(11)
	mgr, _ := cryptoutil.NewKeyPair(rng)
	client, _ := cryptoutil.NewKeyPair(rng)
	v := NewVerifier(4)
	for i := 0; i < 32; i++ {
		ct := &ChannelTicket{
			UserIN: uint64(i), ChannelID: "ch", NetAddr: "r1.as1.h1",
			ClientKey: client.Public(), Start: tStart, Expiry: tEnd,
		}
		if _, err := v.VerifyChannel(SignChannel(ct, mgr), mgr.Public()); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Misses(); got != 32 {
		t.Fatalf("misses = %d, want 32 distinct verifications", got)
	}
}

// TestRememberChannelServesTheIssuerOnly: a ticket the signer recorded at
// issue hits when the very same bytes come back under the signer's key —
// equal, field for field, to what a full verification parses — and
// nothing else rides on the entry: a mutated blob, the same blob under
// another key and the same ticket signed by another key all take the full
// path and fail; the LRU bound holds for remembered entries too.
func TestRememberChannelServesTheIssuerOnly(t *testing.T) {
	rng := cryptoutil.NewSeededReader(13)
	mgr, _ := cryptoutil.NewKeyPair(rng)
	other, _ := cryptoutil.NewKeyPair(rng)
	client, _ := cryptoutil.NewKeyPair(rng)
	ct := &ChannelTicket{
		UserIN: 1, ChannelID: "ch", NetAddr: "r1.as1.h1",
		ClientKey: client.Public(), Start: tStart, Expiry: tEnd, Renewal: true,
	}
	blob := SignChannel(ct, mgr)
	v := NewVerifier(4)
	v.RememberChannel(blob, mgr.Public(), ct)

	got, err := v.VerifyChannel(blob, mgr.Public())
	if err != nil || v.Hits() != 1 || v.Misses() != 0 {
		t.Fatalf("own ticket: err = %v, hits = %d, misses = %d; want a hit", err, v.Hits(), v.Misses())
	}
	want, err := VerifyChannel(blob, mgr.Public())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.encodeBody(), want.encodeBody()) || !got.ClientKey.Equal(want.ClientKey) ||
		!got.Start.Equal(want.Start) || !got.Expiry.Equal(want.Expiry) {
		t.Fatalf("remembered ticket = %+v, full verification parses %+v", got, want)
	}

	for pos := 0; pos < len(blob); pos++ {
		mut := append([]byte(nil), blob...)
		mut[pos] ^= 0x01
		if _, err := v.VerifyChannel(mut, mgr.Public()); err == nil {
			t.Fatalf("bit flip at %d verified through a remembered entry", pos)
		}
	}
	if _, err := v.VerifyChannel(blob, other.Public()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("remembered blob under another signer key: err = %v, want ErrBadSignature", err)
	}
	if _, err := v.VerifyChannel(SignChannel(ct, other), mgr.Public()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("same ticket signed by another key: err = %v, want ErrBadSignature", err)
	}
	if v.Hits() != 1 || v.Misses() != 0 {
		t.Fatalf("failures moved the counters: hits = %d, misses = %d", v.Hits(), v.Misses())
	}

	// Four more issues push the first out of a 4-entry cache: it then
	// verifies in full, once.
	for i := 2; i <= 5; i++ {
		next := *ct
		next.UserIN = uint64(i)
		v.RememberChannel(SignChannel(&next, mgr), mgr.Public(), &next)
	}
	if _, err := v.VerifyChannel(blob, mgr.Public()); err != nil || v.Misses() != 1 {
		t.Fatalf("evicted own ticket: err = %v, misses = %d; want one full verification", err, v.Misses())
	}
}

// Hits reports cache hits across both ticket kinds.
func (v *Verifier) Hits() int64 { return v.hits.Load() }

// Misses reports successful verifications that had to run in full.
func (v *Verifier) Misses() int64 { return v.misses.Load() }
