// Package sectran implements the paper's optional "SSL-like protocol"
// for client↔infrastructure communication (§IV-G1): "Should the contents
// of the User Ticket or other information exchanged with the
// infrastructure servers be considered sensitive enough to be protected
// from eavesdropper, we can easily enforce an SSL-like protocol for all
// communications with infrastructure servers, as the client already must
// obtain the public keys of all our infrastructure servers."
//
// The scheme is a one-round-trip hybrid seal (the client already holds
// the server's public key, so no handshake is needed):
//
//	request  = ECIES(serverPub, respKey(16) || plaintext)
//	response = AES-GCM(respKey, status || plaintext)
//
// Sealed variants of a service are registered under the service name +
// Suffix, so plaintext and sealed clients coexist on one deployment.
package sectran

import (
	"errors"
	"fmt"
	"io"
	"time"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

// Suffix distinguishes the sealed variant of a service.
const Suffix = ".sealed"

// ErrTransport indicates the sealed envelope could not be opened.
var ErrTransport = errors.New("sectran: transport decryption failed")

// WrapHandler adapts a plaintext handler into its sealed variant: the
// request is opened with the server's key pair, the response is sealed
// under the client-chosen response key. Remote errors travel as error
// frames inside the sealed reply envelope so an eavesdropper learns
// nothing from outcomes.
func WrapHandler(kp *cryptoutil.KeyPair, rng io.Reader, inner simnet.Handler) simnet.Handler {
	return func(from simnet.Addr, payload []byte) ([]byte, error) {
		plain, err := kp.Open(payload)
		if err != nil || len(plain) < cryptoutil.SymKeySize {
			return nil, wire.Errf(wire.CodeBadEnvelope, "sealed request undecryptable")
		}
		var respKey cryptoutil.SymKey
		copy(respKey[:], plain[:cryptoutil.SymKeySize])
		req := plain[cryptoutil.SymKeySize:]

		resp, herr := inner(from, req)
		var serr *wire.ServiceError
		if herr != nil && !errors.As(herr, &serr) {
			serr = wire.Errf(wire.CodeInternal, "%v", herr)
		}

		// The envelope encoding is sealed (copied) before returning, so
		// the encoder can come from — and go back to — the shared pool.
		e := wire.GetEnc(64 + len(resp))
		wire.AppendReply(e, resp, serr)
		sealed, err := respKey.Seal(rng, e.Bytes(), nil)
		wire.PutEnc(e)
		if err != nil {
			return nil, wire.Errf(wire.CodeSealFailed, "response sealing failed")
		}
		return sealed, nil
	}
}

// Attempt curries call into the per-attempt shape resilience layers
// drive (destination, service, payload, explicit deadline): the server
// key and RNG are fixed, each invocation is one sealed attempt. The
// response key is fresh per attempt, so a retry is a new envelope — a
// replayed or delayed reply to an earlier attempt cannot satisfy it.
func Attempt(node *simnet.Node, serverPub cryptoutil.PublicKey, rng io.Reader) func(simnet.Addr, string, []byte, time.Duration) ([]byte, error) {
	return func(dst simnet.Addr, svc string, req []byte, timeout time.Duration) ([]byte, error) {
		return call(node, dst, svc, serverPub, req, timeout, rng)
	}
}

// call performs one sealed RPC: the request rides inside an ECIES
// envelope to serverPub; the response comes back under the fresh
// response key. Must run in a simulated goroutine.
func call(node *simnet.Node, dst simnet.Addr, svc string, serverPub cryptoutil.PublicKey, req []byte, timeout time.Duration, rng io.Reader) ([]byte, error) {
	respKey, err := cryptoutil.NewSymKey(rng)
	if err != nil {
		return nil, err
	}
	plain := make([]byte, 0, cryptoutil.SymKeySize+len(req))
	plain = append(plain, respKey[:]...)
	plain = append(plain, req...)
	envelope, err := cryptoutil.Seal(rng, serverPub, plain)
	if err != nil {
		return nil, fmt.Errorf("sectran: seal request: %w", err)
	}
	raw, err := node.Call(dst, svc+Suffix, envelope, timeout)
	if err != nil {
		return nil, err
	}
	opened, err := respKey.Open(raw, nil)
	if err != nil {
		return nil, ErrTransport
	}
	body, remote, err := wire.DecodeReply(opened)
	if err != nil {
		return nil, ErrTransport
	}
	if remote != nil {
		return nil, remote
	}
	return body, nil
}
