package svc

import (
	"fmt"
	"io"
	"time"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/sectran"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

// Transport carries one encoded request to a service and returns the raw
// reply. Implementations decide plain vs sealed, timeouts, and retry
// policy; Invoke layers the typed codec on top.
type Transport interface {
	RoundTrip(dst simnet.Addr, service string, payload []byte) ([]byte, error)
}

// Plain is the unsealed transport: a direct simnet RPC.
type Plain struct {
	Node    *simnet.Node
	Timeout time.Duration
}

// RoundTrip implements Transport.
func (t Plain) RoundTrip(dst simnet.Addr, service string, payload []byte) ([]byte, error) {
	return t.Node.Call(dst, service, payload, t.Timeout)
}

// Traced wraps an inner transport so every request carries a causal
// trace envelope (wire.WrapTraced). With a zero context the wrap is the
// identity and the payload pointer passes through untouched — a Traced
// transport with tracing off is byte-identical to its inner transport.
type Traced struct {
	Inner Transport
	Ctx   wire.TraceCtx
}

// RoundTrip implements Transport.
func (t Traced) RoundTrip(dst simnet.Addr, service string, payload []byte) ([]byte, error) {
	return t.Inner.RoundTrip(dst, service, wire.WrapTraced(t.Ctx, payload))
}

// SealedAttempt returns the attempt function for the sealed transport,
// the per-attempt unit a Policy drives.
func SealedAttempt(node *simnet.Node, key cryptoutil.PublicKey, rng io.Reader) AttemptFunc {
	return AttemptFunc(sectran.Attempt(node, key, rng))
}

// Invoke performs one typed RPC: encode the request, round-trip it, and
// decode the reply. Remote *wire.ServiceError values surface unwrapped so
// callers can errors.As on them; reply-decode failures are wrapped with
// the service name.
func Invoke[Resp any](t Transport, dst simnet.Addr, service string, req Message, dec func([]byte) (Resp, error)) (Resp, error) {
	var zero Resp
	raw, err := t.RoundTrip(dst, service, req.Encode())
	if err != nil {
		return zero, err
	}
	resp, err := dec(raw)
	if err != nil {
		return zero, fmt.Errorf("svc %s: reply: %w", service, err)
	}
	return resp, nil
}
