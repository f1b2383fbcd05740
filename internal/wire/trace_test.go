package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestTraceWrapUnwrapRoundTrip(t *testing.T) {
	payload := []byte("hello protocol frame")
	tc := TraceCtx{Trace: 0xDEADBEEFCAFEF00D, Span: 42}
	wrapped := WrapTraced(tc, payload)
	if len(wrapped) != traceEnvLen+len(payload) {
		t.Fatalf("wrapped length = %d, want %d", len(wrapped), traceEnvLen+len(payload))
	}
	got, inner := UnwrapTraced(wrapped)
	if got != tc {
		t.Fatalf("ctx = %+v, want %+v", got, tc)
	}
	if !bytes.Equal(inner, payload) {
		t.Fatalf("inner payload mismatch")
	}
}

func TestTraceZeroCtxIsPassthrough(t *testing.T) {
	payload := []byte{1, 2, 3}
	wrapped := WrapTraced(TraceCtx{}, payload)
	if &wrapped[0] != &payload[0] {
		t.Fatalf("zero ctx must return the payload slice unchanged (no copy)")
	}
}

func TestTraceUnwrapPlainPayload(t *testing.T) {
	// Typical protocol frames start with a u32 length prefix far from the
	// magic; unwrap must hand them back untouched.
	for _, payload := range [][]byte{
		nil,
		{},
		{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'},
		bytes.Repeat([]byte{0xD7}, 3), // shorter than the envelope
	} {
		tc, inner := UnwrapTraced(payload)
		if tc.Valid() {
			t.Fatalf("plain payload %v decoded a trace ctx %+v", payload, tc)
		}
		if !bytes.Equal(inner, payload) {
			t.Fatalf("plain payload %v altered to %v", payload, inner)
		}
	}
}

func TestTraceUnwrapZeroTraceAliasIsLeftAlone(t *testing.T) {
	// A payload that starts with the magic but carries trace ID 0 cannot
	// have come from WrapTraced; it must come back byte-identical.
	alias := append([]byte(nil), traceMagic[:]...)
	alias = append(alias, make([]byte, 16)...)
	alias = append(alias, 'x')
	tc, inner := UnwrapTraced(alias)
	if tc.Valid() {
		t.Fatalf("zero-trace alias decoded as valid: %+v", tc)
	}
	if !bytes.Equal(inner, alias) {
		t.Fatalf("zero-trace alias altered")
	}
}

func TestTraceWrapUnwrapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		payload := make([]byte, rng.Intn(64))
		rng.Read(payload)
		tc := TraceCtx{Trace: rng.Uint64(), Span: rng.Uint64()}
		got, inner := UnwrapTraced(WrapTraced(tc, payload))
		if tc.Valid() {
			if got != tc || !bytes.Equal(inner, payload) {
				t.Fatalf("round trip failed for %+v", tc)
			}
		} else if got.Valid() {
			t.Fatalf("invalid ctx surfaced as valid")
		}
	}
}
