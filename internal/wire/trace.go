package wire

import "encoding/binary"

// Causal-tracing envelope. A traced client wraps every request payload in
// a fixed 20-byte prefix — a 4-byte magic, the 64-bit trace ID, and the
// 64-bit parent span ID — and the service runtime strips it again before
// the frame decoder runs. The envelope is how a TraceID/SpanID pair
// propagates across the simulated network without touching any message
// schema: wrapped bytes ride inside the sealed transport's ECIES
// envelope unchanged, and the simulated network's latency model is
// payload-size independent, so wrapping perturbs neither timing nor any
// seeded random draw.
//
// A zero TraceCtx wraps to the payload itself (no copy, no prefix), so
// the disabled-tracing path emits byte-identical frames to a build that
// predates tracing — the golden-fingerprint invariant.

// TraceCtx is the causal context stamped on one request: which viewer
// journey the request belongs to and which client-side span caused it.
type TraceCtx struct {
	// Trace identifies the viewer journey (0 = untraced).
	Trace uint64
	// Span is the emitting client span the receiver should parent its
	// server span under.
	Span uint64
}

// Valid reports whether the context carries a live trace.
func (tc TraceCtx) Valid() bool { return tc.Trace != 0 }

// traceMagic prefixes a traced payload. The first byte is deliberately
// outside the range a length-prefixed wire message can start with (every
// protocol frame opens with a u32 length or count far below 0xD7000000),
// so an untraced frame can never alias the envelope.
var traceMagic = [4]byte{0xD7, 0x72, 0xA5, 0xE9}

// traceEnvLen is the wrapped-payload overhead in bytes.
const traceEnvLen = 4 + 8 + 8

// WrapTraced prefixes payload with the trace envelope. An invalid
// (zero-trace) context returns payload unchanged — zero cost off.
func WrapTraced(tc TraceCtx, payload []byte) []byte {
	if !tc.Valid() {
		return payload
	}
	out := make([]byte, 0, traceEnvLen+len(payload))
	out = append(out, traceMagic[:]...)
	out = binary.BigEndian.AppendUint64(out, tc.Trace)
	out = binary.BigEndian.AppendUint64(out, tc.Span)
	return append(out, payload...)
}

// UnwrapTraced strips the trace envelope if present, returning the
// context and the inner payload. Payloads without the envelope come back
// unchanged with a zero context. The check is a bounded 4-byte compare —
// cheap enough to run unconditionally on every request, traced or not.
func UnwrapTraced(payload []byte) (TraceCtx, []byte) {
	if len(payload) < traceEnvLen ||
		payload[0] != traceMagic[0] || payload[1] != traceMagic[1] ||
		payload[2] != traceMagic[2] || payload[3] != traceMagic[3] {
		return TraceCtx{}, payload
	}
	tc := TraceCtx{
		Trace: binary.BigEndian.Uint64(payload[4:]),
		Span:  binary.BigEndian.Uint64(payload[12:]),
	}
	if !tc.Valid() {
		// A zero trace ID never wraps, so this is a payload that merely
		// starts with the magic — leave it alone.
		return TraceCtx{}, payload
	}
	return tc, payload[traceEnvLen:]
}
