package sectran_test

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/sectran"
	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/wire"
)

var t0 = time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)

type fixture struct {
	sched  *sim.Scheduler
	net    *simnet.Network
	keys   *cryptoutil.KeyPair
	rng    *cryptoutil.SeededReader
	server *simnet.Node
	seen   [][]byte // raw payloads observed "on the wire" at the server
}

func newFixture(t *testing.T, inner simnet.Handler) *fixture {
	t.Helper()
	s := sim.New(t0, 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: time.Millisecond}))
	rng := cryptoutil.NewSeededReader(1)
	keys, _ := cryptoutil.NewKeyPair(rng)
	f := &fixture{sched: s, net: net, keys: keys, rng: rng}
	f.server = net.NewNode("server")
	rt := svc.NewRuntime(f.server)
	svc.RegisterRaw(rt, "svc", func(from simnet.Addr, p []byte) ([]byte, error) {
		f.seen = append(f.seen, append([]byte(nil), p...))
		return inner(from, p)
	})
	if err := rt.EnableSealed(keys, rng, "svc"); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSealedRoundTrip(t *testing.T) {
	f := newFixture(t, func(_ simnet.Addr, p []byte) ([]byte, error) {
		return append([]byte("echo:"), p...), nil
	})
	cli := f.net.NewNode("client")
	var resp []byte
	var cerr error
	f.sched.Go(func() {
		resp, cerr = sectran.Attempt(cli, f.keys.Public(), f.rng)("server", "svc", []byte("secret request"), 0)
	})
	f.sched.Run()
	if cerr != nil {
		t.Fatal(cerr)
	}
	if !bytes.Equal(resp, []byte("echo:secret request")) {
		t.Fatalf("resp = %q", resp)
	}
}

func TestRequestNotVisibleOnWire(t *testing.T) {
	// The tap in the fixture sits inside the sealed handler, so inspect
	// the network instead: wrap manually and register the sealed service
	// name ourselves so the envelope bytes can be captured pre-decryption.
	s := sim.New(t0, 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: time.Millisecond}))
	rng := cryptoutil.NewSeededReader(1)
	keys, _ := cryptoutil.NewKeyPair(rng)
	srv := net.NewNode("server")
	rt := svc.NewRuntime(srv)
	var rawEnvelope []byte
	sealed := sectran.WrapHandler(keys, rng, func(_ simnet.Addr, p []byte) ([]byte, error) {
		return []byte("topsecret-response"), nil
	})
	svc.RegisterRaw(rt, "svc"+sectran.Suffix, func(from simnet.Addr, p []byte) ([]byte, error) {
		rawEnvelope = append([]byte(nil), p...)
		return sealed(from, p)
	})
	cli := net.NewNode("client")
	var resp []byte
	s.Go(func() {
		resp, _ = sectran.Attempt(cli, keys.Public(), rng)("server", "svc", []byte("SENSITIVE-TICKET-BYTES"), 0)
	})
	s.Run()
	if bytes.Contains(rawEnvelope, []byte("SENSITIVE-TICKET")) {
		t.Fatal("plaintext request visible in the sealed envelope")
	}
	if !bytes.Equal(resp, []byte("topsecret-response")) {
		t.Fatalf("resp = %q", resp)
	}
}

func TestRemoteErrorTravelsSealed(t *testing.T) {
	f := newFixture(t, func(simnet.Addr, []byte) ([]byte, error) {
		return nil, wire.Errf(wire.CodeDenied, "no such user")
	})
	cli := f.net.NewNode("client")
	var cerr error
	f.sched.Go(func() {
		_, cerr = sectran.Attempt(cli, f.keys.Public(), f.rng)("server", "svc", []byte("x"), 0)
	})
	f.sched.Run()
	var se *wire.ServiceError
	if !errors.As(cerr, &se) || se.Code != wire.CodeDenied {
		t.Fatalf("err = %v, want ServiceError{denied}", cerr)
	}
}

func TestGarbageEnvelopeRejected(t *testing.T) {
	f := newFixture(t, func(simnet.Addr, []byte) ([]byte, error) { return nil, nil })
	cli := f.net.NewNode("client")
	var cerr error
	f.sched.Go(func() {
		_, cerr = cli.Call("server", "svc"+sectran.Suffix, []byte("not an envelope"), 0)
	})
	f.sched.Run()
	var se *wire.ServiceError
	if !errors.As(cerr, &se) || se.Code != wire.CodeBadEnvelope {
		t.Fatalf("err = %v, want %s", cerr, wire.CodeBadEnvelope)
	}
}

func TestWrongServerKeyFails(t *testing.T) {
	f := newFixture(t, func(simnet.Addr, []byte) ([]byte, error) { return []byte("ok"), nil })
	wrong, _ := cryptoutil.NewKeyPair(f.rng)
	cli := f.net.NewNode("client")
	var cerr error
	f.sched.Go(func() {
		_, cerr = sectran.Attempt(cli, wrong.Public(), f.rng)("server", "svc", []byte("x"), 0)
	})
	f.sched.Run()
	if cerr == nil {
		t.Fatal("call sealed to the wrong key succeeded")
	}
}

func TestResponseBoundToRequestKey(t *testing.T) {
	// A MITM replaying the response to a different request cannot: each
	// request carries a fresh response key.
	f := newFixture(t, func(_ simnet.Addr, p []byte) ([]byte, error) { return p, nil })
	cli := f.net.NewNode("client")
	var r1, r2 []byte
	f.sched.Go(func() {
		r1, _ = sectran.Attempt(cli, f.keys.Public(), f.rng)("server", "svc", []byte("one"), 0)
		r2, _ = sectran.Attempt(cli, f.keys.Public(), f.rng)("server", "svc", []byte("two"), 0)
	})
	f.sched.Run()
	if !bytes.Equal(r1, []byte("one")) || !bytes.Equal(r2, []byte("two")) {
		t.Fatalf("responses = %q, %q", r1, r2)
	}
}

// Property: arbitrary payloads round-trip the sealed transport.
func TestSealedRoundTripProperty(t *testing.T) {
	f := newFixture(t, func(_ simnet.Addr, p []byte) ([]byte, error) { return p, nil })
	cli := f.net.NewNode("client")
	check := func(payload []byte) bool {
		var got []byte
		var cerr error
		f.sched.Go(func() {
			got, cerr = sectran.Attempt(cli, f.keys.Public(), f.rng)("server", "svc", payload, 0)
		})
		f.sched.Run()
		return cerr == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
