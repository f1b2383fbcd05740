package sectran_test

import (
	"bytes"
	"errors"
	"testing"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/sectran"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

// FuzzWrapHandler feeds arbitrary request bytes to a sealed handler. It
// never panics; the inner handler runs only when the bytes open under
// the server's key as an envelope carrying a response key, and then sees
// exactly the request sealed inside and answers under that key; any
// other input is refused with wire.CodeBadEnvelope before the handler
// runs.
func FuzzWrapHandler(f *testing.F) {
	rng := cryptoutil.NewSeededReader(1)
	server, _ := cryptoutil.NewKeyPair(rng)
	other, _ := cryptoutil.NewKeyPair(rng)
	respKey, _ := cryptoutil.NewSymKey(rng)
	for _, to := range []*cryptoutil.KeyPair{server, other} {
		for _, plain := range [][]byte{
			append(respKey[:], "login request"...),
			respKey[:],
			respKey[:cryptoutil.SymKeySize-1],
		} {
			env, err := cryptoutil.Seal(rng, to.Public(), plain)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(env)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("not an envelope"))

	f.Fuzz(func(t *testing.T, payload []byte) {
		var ran bool
		var seen []byte
		h := sectran.WrapHandler(server, cryptoutil.NewSeededReader(2), func(_ simnet.Addr, req []byte) ([]byte, error) {
			ran, seen = true, bytes.Clone(req)
			return []byte("reply"), nil
		})
		resp, err := h("client", payload)

		plain, openErr := server.Open(payload)
		if openErr != nil || len(plain) < cryptoutil.SymKeySize {
			var se *wire.ServiceError
			if !errors.As(err, &se) || se.Code != wire.CodeBadEnvelope || resp != nil {
				t.Fatalf("unopenable request answered %x, %v; want %s", resp, err, wire.CodeBadEnvelope)
			}
			if ran {
				t.Fatal("inner handler ran on a request that does not open under the server key")
			}
			return
		}
		if err != nil || !ran {
			t.Fatalf("opening request: handler ran %v, err %v", ran, err)
		}
		if !bytes.Equal(seen, plain[cryptoutil.SymKeySize:]) {
			t.Fatalf("handler saw %x, sealed request was %x", seen, plain[cryptoutil.SymKeySize:])
		}
		var key cryptoutil.SymKey
		copy(key[:], plain)
		opened, err := key.Open(resp, nil)
		if err != nil {
			t.Fatalf("reply does not open under the request's response key: %v", err)
		}
		body, remote, err := wire.DecodeReply(opened)
		if err != nil || remote != nil || string(body) != "reply" {
			t.Fatalf("reply envelope = %q, %v, %v", body, remote, err)
		}
	})
}
