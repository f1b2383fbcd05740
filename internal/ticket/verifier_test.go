package ticket

import (
	"bytes"
	"errors"
	"fmt"
	mrand "math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"p2pdrm/internal/attr"
	"p2pdrm/internal/cryptoutil"
)

// TestVerifierMatchesUncached is the cache-transparency property test:
// for valid, expired, and bit-flipped tickets — of both kinds — the
// cached path must return byte-identical results and identical errors to
// the package-level verify functions, on both the cold (miss) and warm
// (hit) pass. A second Verifier, in which the issuer remembered every
// genuine blob at signing, must return the same errors and tickets that
// encode to the same signed body, and must never verify a genuine blob
// in full.
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
	rem := newCounted(0)
	pub := mgr.Public()

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
		utBlob := SignUser(ut, mgr)
		rem.RememberUser(utBlob, pub, ut)
		cases = append(cases, blobCase{fmt.Sprintf("user/%s/%d", kind, i), utBlob})
		ct := &ChannelTicket{
			UserIN: uint64(2000 + i), ChannelID: fmt.Sprintf("ch%d", i),
			NetAddr: "r1.as1.h1", ClientKey: client.Public(),
			Start: tStart, Expiry: expiry, Renewal: i%4 == 2,
		}
		ctBlob := SignChannel(ct, mgr)
		rem.RememberChannel(ctBlob, pub, ct)
		cases = append(cases, blobCase{fmt.Sprintf("channel/%s/%d", kind, i), ctBlob})
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

	v := newCounted(0)
	for _, c := range cases {
		// Two passes: the first may populate the cache, the second must
		// hit it for successes — and both must match the uncached result.
		for pass := 0; pass < 2; pass++ {
			wantUT, wantUErr := verifyUser(c.blob, pub)
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

			remUT, remUErr := rem.VerifyUser(c.blob, pub)
			if !errors.Is(remUErr, wantUErr) && !errors.Is(wantUErr, remUErr) {
				t.Fatalf("%s pass %d: remembered VerifyUser err = %v, uncached %v", c.name, pass, remUErr, wantUErr)
			}
			if (remUT == nil) != (wantUT == nil) || remUT != nil && !sameUser(remUT, wantUT) {
				t.Fatalf("%s pass %d: remembered VerifyUser = %+v, uncached %+v", c.name, pass, remUT, wantUT)
			}
			remCT, remCErr := rem.VerifyChannel(c.blob, pub)
			if !errors.Is(remCErr, wantCErr) && !errors.Is(wantCErr, remCErr) {
				t.Fatalf("%s pass %d: remembered VerifyChannel err = %v, uncached %v", c.name, pass, remCErr, wantCErr)
			}
			if (remCT == nil) != (wantCT == nil) || remCT != nil && !sameChannel(remCT, wantCT) {
				t.Fatalf("%s pass %d: remembered VerifyChannel = %+v, uncached %+v", c.name, pass, remCT, wantCT)
			}
		}
	}
	if v.hits == 0 {
		t.Fatal("second passes never hit the cache")
	}
	if rem.misses != 0 || rem.hits != 2*16 {
		t.Fatalf("remembered verifier: hits = %d, misses = %d; want every genuine blob to hit on both passes", rem.hits, rem.misses)
	}
}

// sameUser reports whether two User Tickets encode to the same signed
// body with the same client key and instants — what a remembered entry
// must share with a full parse (the issuer's struct may differ in
// representation only, e.g. a client key holding its parsed box half).
func sameUser(a, b *UserTicket) bool {
	return bytes.Equal(a.encodeBody(), b.encodeBody()) && bytes.Equal(a.ClientKey.Encode(), b.ClientKey.Encode()) &&
		a.Start.Equal(b.Start) && a.Expiry.Equal(b.Expiry)
}

// sameChannel is sameUser for Channel Tickets.
func sameChannel(a, b *ChannelTicket) bool {
	return bytes.Equal(a.encodeBody(), b.encodeBody()) && bytes.Equal(a.ClientKey.Encode(), b.ClientKey.Encode()) &&
		a.Start.Equal(b.Start) && a.Expiry.Equal(b.Expiry)
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
	v := newCounted(0)
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
	before := v.hits
	if _, err := v.VerifyChannel(blob, mgr.Public()); err != nil {
		t.Fatal(err)
	}
	if v.hits != before+1 {
		t.Fatal("original blob stopped hitting the cache")
	}
}

// TestVerifierEviction checks the LRU bound holds under churn.
func TestVerifierEviction(t *testing.T) {
	rng := cryptoutil.NewSeededReader(11)
	mgr, _ := cryptoutil.NewKeyPair(rng)
	client, _ := cryptoutil.NewKeyPair(rng)
	v := newCounted(4)
	for i := 0; i < 32; i++ {
		ct := &ChannelTicket{
			UserIN: uint64(i), ChannelID: "ch", NetAddr: "r1.as1.h1",
			ClientKey: client.Public(), Start: tStart, Expiry: tEnd,
		}
		if _, err := v.VerifyChannel(SignChannel(ct, mgr), mgr.Public()); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.misses; got != 32 {
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
	v := newCounted(4)
	v.RememberChannel(blob, mgr.Public(), ct)

	got, err := v.VerifyChannel(blob, mgr.Public())
	if err != nil || v.hits != 1 || v.misses != 0 {
		t.Fatalf("own ticket: err = %v, hits = %d, misses = %d; want a hit", err, v.hits, v.misses)
	}
	want, err := VerifyChannel(blob, mgr.Public())
	if err != nil {
		t.Fatal(err)
	}
	if !sameChannel(got, want) {
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
	if v.hits != 1 || v.misses != 0 {
		t.Fatalf("failures moved the counters: hits = %d, misses = %d", v.hits, v.misses)
	}

	// Four more issues push the first out of a 4-entry cache: it then
	// verifies in full, once.
	for i := 2; i <= 5; i++ {
		next := *ct
		next.UserIN = uint64(i)
		v.RememberChannel(SignChannel(&next, mgr), mgr.Public(), &next)
	}
	if _, err := v.VerifyChannel(blob, mgr.Public()); err != nil || v.misses != 1 {
		t.Fatalf("evicted own ticket: err = %v, misses = %d; want one full verification", err, v.misses)
	}
}

// TestRememberUserServesTheIssuerOnly mirrors the Channel Ticket case:
// a User Ticket the User Manager recorded at issue hits when the very
// same bytes come back under its key, equal to what a full verification
// parses; a mutated blob, the same blob under another key and the same
// ticket signed by another key all take the full path and fail; the LRU
// bound holds for remembered entries too.
func TestRememberUserServesTheIssuerOnly(t *testing.T) {
	rng := cryptoutil.NewSeededReader(17)
	mgr, _ := cryptoutil.NewKeyPair(rng)
	other, _ := cryptoutil.NewKeyPair(rng)
	client, _ := cryptoutil.NewKeyPair(rng)
	ut := sampleUserTicket(client)
	blob := SignUser(ut, mgr)
	v := newCounted(4)
	v.RememberUser(blob, mgr.Public(), ut)

	got, err := v.VerifyUser(blob, mgr.Public())
	if err != nil || v.hits != 1 || v.misses != 0 {
		t.Fatalf("own ticket: err = %v, hits = %d, misses = %d; want a hit", err, v.hits, v.misses)
	}
	want, err := verifyUser(blob, mgr.Public())
	if err != nil {
		t.Fatal(err)
	}
	if !sameUser(got, want) {
		t.Fatalf("remembered ticket = %+v, full verification parses %+v", got, want)
	}

	for pos := 0; pos < len(blob); pos++ {
		mut := append([]byte(nil), blob...)
		mut[pos] ^= 0x01
		if _, err := v.VerifyUser(mut, mgr.Public()); err == nil {
			t.Fatalf("bit flip at %d verified through a remembered entry", pos)
		}
	}
	if _, err := v.VerifyUser(blob, other.Public()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("remembered blob under another signer key: err = %v, want ErrBadSignature", err)
	}
	if _, err := v.VerifyUser(SignUser(ut, other), mgr.Public()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("same ticket signed by another key: err = %v, want ErrBadSignature", err)
	}
	if v.hits != 1 || v.misses != 0 {
		t.Fatalf("failures moved the counters: hits = %d, misses = %d", v.hits, v.misses)
	}

	for i := 2; i <= 5; i++ {
		next := *ut
		next.UserIN = uint64(i)
		v.RememberUser(SignUser(&next, mgr), mgr.Public(), &next)
	}
	if _, err := v.VerifyUser(blob, mgr.Public()); err != nil || v.misses != 1 {
		t.Fatalf("evicted own ticket: err = %v, misses = %d; want one full verification", err, v.misses)
	}
}

// TestMemoNeverVouchesForForgeries: with the genuine blob already in the
// memo — remembered by its issuer or verified by an earlier node — each
// forgery below must miss and fail with ErrBadSignature, for both ticket
// kinds. Failures are not cached, so a second attempt fails the same way.
func TestMemoNeverVouchesForForgeries(t *testing.T) {
	rng := cryptoutil.NewSeededReader(19)
	mgr, _ := cryptoutil.NewKeyPair(rng)
	outsider, _ := cryptoutil.NewKeyPair(rng) // holds no manager key
	client, _ := cryptoutil.NewKeyPair(rng)
	ut := sampleUserTicket(client)
	ct := &ChannelTicket{
		UserIN: 42, ChannelID: "ch", NetAddr: "r1.as100.h7",
		ClientKey: client.Public(), Start: tStart, Expiry: tEnd,
	}
	utBlob, ctBlob := SignUser(ut, mgr), SignChannel(ct, mgr)
	flip := func(b []byte, pos int) []byte {
		out := append([]byte(nil), b...)
		out[pos] ^= 0x80
		return out
	}

	type kind struct {
		name     string
		genuine  []byte
		resigned []byte
		remember func(v *countedVerifier)
		verify   func(v *countedVerifier, b []byte, k cryptoutil.PublicKey) error
	}
	kinds := []kind{
		{"user", utBlob, SignUser(ut, outsider),
			func(v *countedVerifier) { v.RememberUser(utBlob, mgr.Public(), ut) },
			func(v *countedVerifier, b []byte, k cryptoutil.PublicKey) error {
				_, err := v.VerifyUser(b, k)
				return err
			}},
		{"channel", ctBlob, SignChannel(ct, outsider),
			func(v *countedVerifier) { v.RememberChannel(ctBlob, mgr.Public(), ct) },
			func(v *countedVerifier, b []byte, k cryptoutil.PublicKey) error {
				_, err := v.VerifyChannel(b, k)
				return err
			}},
	}
	for _, k := range kinds {
		forgeries := []struct {
			name string
			blob []byte
			key  cryptoutil.PublicKey
		}{
			{"bit flip in the body", flip(k.genuine, 12), mgr.Public()},
			{"bit flip in the signature", flip(k.genuine, len(k.genuine)-5), mgr.Public()},
			{"same body re-signed by a non-manager key", k.resigned, mgr.Public()},
			{"genuine blob against another signer key", k.genuine, outsider.Public()},
		}
		for _, populate := range []string{"remembered", "verified"} {
			v := newCounted(0)
			if populate == "remembered" {
				k.remember(v)
			} else if err := k.verify(v, k.genuine, mgr.Public()); err != nil {
				t.Fatal(err)
			}
			hits, misses := v.hits, v.misses
			for _, f := range forgeries {
				for attempt := 0; attempt < 2; attempt++ {
					if err := k.verify(v, f.blob, f.key); !errors.Is(err, ErrBadSignature) {
						t.Fatalf("%s/%s/%s attempt %d: err = %v, want ErrBadSignature", k.name, populate, f.name, attempt, err)
					}
				}
			}
			if v.hits != hits || v.misses != misses {
				t.Fatalf("%s/%s: forgeries moved the counters (hits %d→%d, misses %d→%d)",
					k.name, populate, hits, v.hits, misses, v.misses)
			}
			if err := k.verify(v, k.genuine, mgr.Public()); err != nil || v.hits != hits+1 {
				t.Fatalf("%s/%s: genuine blob err = %v, hits %d; want a hit", k.name, populate, err, v.hits)
			}
		}
	}
}

// TestRememberedExpiredStillFailsValidAt: the memo holds signatures, not
// verdicts on time. A ticket remembered at issue and served from the memo
// after its expiry still fails ValidAt on the caller's clock.
func TestRememberedExpiredStillFailsValidAt(t *testing.T) {
	rng := cryptoutil.NewSeededReader(23)
	mgr, _ := cryptoutil.NewKeyPair(rng)
	client, _ := cryptoutil.NewKeyPair(rng)
	v := newCounted(0)
	ut := sampleUserTicket(client)
	utBlob := SignUser(ut, mgr)
	v.RememberUser(utBlob, mgr.Public(), ut)
	ct := &ChannelTicket{
		UserIN: 42, ChannelID: "ch", NetAddr: "r1.as100.h7",
		ClientKey: client.Public(), Start: tStart, Expiry: tEnd,
	}
	ctBlob := SignChannel(ct, mgr)
	v.RememberChannel(ctBlob, mgr.Public(), ct)

	gotUT, err := v.VerifyUser(utBlob, mgr.Public())
	if err != nil {
		t.Fatal(err)
	}
	gotCT, err := v.VerifyChannel(ctBlob, mgr.Public())
	if err != nil {
		t.Fatal(err)
	}
	if v.hits != 2 {
		t.Fatalf("hits = %d, want both served from the memo", v.hits)
	}
	for _, now := range []time.Time{tEnd, tEnd.Add(time.Hour)} {
		if err := gotUT.ValidAt(now); !errors.Is(err, ErrExpired) {
			t.Fatalf("remembered user ticket at %v: ValidAt = %v, want ErrExpired", now, err)
		}
		if err := gotCT.ValidAt(now); !errors.Is(err, ErrExpired) {
			t.Fatalf("remembered channel ticket at %v: ValidAt = %v, want ErrExpired", now, err)
		}
	}
	if err := gotCT.ValidAt(tStart.Add(-time.Second)); !errors.Is(err, ErrNotYetValid) {
		t.Fatalf("remembered channel ticket before its start: ValidAt = %v, want ErrNotYetValid", err)
	}
}

// TestSharedVerifierConcurrent: one Verifier serves goroutines that
// verify and remember overlapping blobs of both kinds at once, with a
// capacity small enough that entries are evicted under them, and read
// the tickets they get back. Every genuine blob verifies to its own
// ticket and the forgery never verifies. Run it under -race.
func TestSharedVerifierConcurrent(t *testing.T) {
	rng := cryptoutil.NewSeededReader(29)
	mgr, _ := cryptoutil.NewKeyPair(rng)
	client, _ := cryptoutil.NewKeyPair(rng)
	pub := mgr.Public()
	const n = 12
	uts := make([]*UserTicket, n)
	cts := make([]*ChannelTicket, n)
	utBlobs := make([][]byte, n)
	ctBlobs := make([][]byte, n)
	for i := range uts {
		uts[i] = sampleUserTicket(client)
		uts[i].UserIN = uint64(100 + i)
		utBlobs[i] = SignUser(uts[i], mgr)
		cts[i] = &ChannelTicket{
			UserIN: uint64(200 + i), ChannelID: fmt.Sprintf("ch%d", i), NetAddr: "r1.as100.h7",
			ClientKey: client.Public(), Start: tStart, Expiry: tEnd,
		}
		ctBlobs[i] = SignChannel(cts[i], mgr)
	}
	forged := append([]byte(nil), ctBlobs[0]...)
	forged[20] ^= 1

	v := NewVerifier(n / 2)
	const workers, ops = 4, 60
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for op := 0; op < ops; op++ {
				i := (op*(w+1) + w) % n
				switch op % 5 {
				case 0:
					v.RememberUser(utBlobs[i], pub, uts[i])
				case 1:
					v.RememberChannel(ctBlobs[i], pub, cts[i])
				case 2:
					got, err := v.VerifyUser(utBlobs[i], pub)
					if err != nil || got.UserIN != uint64(100+i) || got.NetAddr() != "r1.as100.h7" {
						errs <- fmt.Errorf("worker %d: user ticket %d = %v, %v", w, i, got, err)
						return
					}
				case 3:
					got, err := v.VerifyChannel(ctBlobs[i], pub)
					if err != nil || got.UserIN != uint64(200+i) || got.ChannelID != fmt.Sprintf("ch%d", i) ||
						got.ValidAt(tStart) != nil {
						errs <- fmt.Errorf("worker %d: channel ticket %d = %v, %v", w, i, got, err)
						return
					}
				case 4:
					if _, err := v.VerifyChannel(forged, pub); !errors.Is(err, ErrBadSignature) {
						errs <- fmt.Errorf("worker %d: forged blob err = %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	users, channels := 0, 0
	for i := range utBlobs {
		if _, ok := v.user.Get(cacheKey(utBlobs[i], pub)); ok {
			users++
		}
		if _, ok := v.channel.Get(cacheKey(ctBlobs[i], pub)); ok {
			channels++
		}
	}
	if users > n/2 || channels > n/2 {
		t.Fatalf("memo holds %d user / %d channel tickets, bound %d", users, channels, n/2)
	}
}

// countedVerifier tallies which successful verifications v's memo served
// (hits) and which ran in full (misses), across both ticket kinds. A hit
// returns the very ticket the memo held before the call; a full
// verification parses a fresh one.
type countedVerifier struct {
	*Verifier
	hits, misses int
}

func newCounted(capacity int) *countedVerifier {
	return &countedVerifier{Verifier: NewVerifier(capacity)}
}

func (c *countedVerifier) VerifyUser(b []byte, mgr cryptoutil.PublicKey) (*UserTicket, error) {
	held, _ := c.user.Get(cacheKey(b, mgr))
	t, err := c.Verifier.VerifyUser(b, mgr)
	c.tally(err, held != nil && t == held)
	return t, err
}

func (c *countedVerifier) VerifyChannel(b []byte, mgr cryptoutil.PublicKey) (*ChannelTicket, error) {
	held, _ := c.channel.Get(cacheKey(b, mgr))
	t, err := c.Verifier.VerifyChannel(b, mgr)
	c.tally(err, held != nil && t == held)
	return t, err
}

func (c *countedVerifier) tally(err error, hit bool) {
	switch {
	case err != nil:
	case hit:
		c.hits++
	default:
		c.misses++
	}
}
