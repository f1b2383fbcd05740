package svc

import (
	"testing"
	"time"

	"p2pdrm/internal/obs"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

// TestTracedCallChainsServerSpan pins the end-to-end causal chain: a
// Traced transport stamps the stage context on the wire, the policy
// re-parents the envelope under its call span, and the server runtime
// emits a handler span parented under that call — stage → call → server.
func TestTracedCallChainsServerSpan(t *testing.T) {
	s, net := newNet()
	node := net.NewNode("server")
	node.SetCapacity(1, func() time.Duration { return 5 * time.Millisecond })
	rt := NewRuntime(node)
	Register(rt, "feed", wire.DecodeFeed, echoFeed)
	ring := obs.NewTrace(64)
	rt.SetTrace(ring)

	cli := net.NewNode("client")
	pol := NewPolicy(s, PolicyConfig{Trace: ring})
	trace := obs.TraceIDFor(1, "alice")
	stage := obs.SpanID(trace, 0, "stage", 1)
	tr := Traced{
		Inner: PolicyTransport{Policy: pol, Attempt: AttemptFunc(cli.Call)},
		Ctx:   wire.TraceCtx{Trace: trace, Span: stage},
	}
	s.Go(func() {
		if _, err := Invoke(tr, "server", "feed", &wire.Feed{Version: 1}, wire.DecodeFeed); err != nil {
			t.Errorf("traced call: %v", err)
		}
	})
	s.Run()

	spans := ring.Spans()
	var call, server *obs.Span
	for i := range spans {
		switch spans[i].Kind {
		case obs.KindCall:
			call = &spans[i]
		case obs.KindServer:
			server = &spans[i]
		}
	}
	if call == nil || server == nil {
		t.Fatalf("missing spans: %+v", spans)
	}
	if call.Trace != trace || call.Parent != stage {
		t.Fatalf("call span not parented under the stage: %+v", call)
	}
	if server.Trace != trace || server.Parent != call.ID {
		t.Fatalf("server span not parented under the call: %+v (call ID %x)", server, call.ID)
	}
	if server.Node != "server" || server.Service != "feed" || server.Outcome != "ok" {
		t.Fatalf("server span fields: %+v", server)
	}
	if server.Begin.Before(call.Begin) || server.End.After(call.End) {
		t.Fatalf("server interval [%v,%v] outside call [%v,%v]",
			server.Begin, server.End, call.Begin, call.End)
	}
	// Service time was 5ms: the handler span itself is instantaneous (the
	// capacity delay precedes the handler), but call − server covers wire
	// latency + queueing.
	if call.End.Sub(call.Begin) < server.End.Sub(server.Begin) {
		t.Fatal("call shorter than its server span")
	}
}

// TestTracedShedEmitsSpan pins the shed-refusal span: a traced request
// refused at the admission mark leaves a KindShed span parented under
// the caller's span even though no handler ran.
func TestTracedShedEmitsSpan(t *testing.T) {
	s, net := newNet()
	node := net.NewNode("server")
	node.SetCapacity(1, func() time.Duration { return 100 * time.Millisecond })
	rt := NewRuntime(node)
	Register(rt, "feed", wire.DecodeFeed, echoFeed)
	if err := rt.SetShedding("feed", 1); err != nil {
		t.Fatal(err)
	}
	ring := obs.NewTrace(64)
	rt.SetTrace(ring)

	trace := obs.TraceIDFor(1, "bob")
	stage := obs.SpanID(trace, 0, "stage", 1)
	for i := 0; i < 3; i++ {
		cli := net.NewNode(simnet.Addr("client" + string(rune('a'+i))))
		s.Go(func() {
			tr := Traced{Inner: Plain{Node: cli}, Ctx: wire.TraceCtx{Trace: trace, Span: stage}}
			_, _ = tr.RoundTrip("server", "feed", (&wire.Feed{Version: 1}).Encode())
		})
	}
	s.Run()

	sheds := 0
	for _, sp := range ring.Spans() {
		if sp.Kind == obs.KindShed {
			sheds++
			if sp.Trace != trace || sp.Parent != stage || sp.Service != "feed" {
				t.Fatalf("shed span mis-threaded: %+v", sp)
			}
			if sp.Outcome != wire.CodeOverloaded.String() {
				t.Fatalf("shed outcome %q", sp.Outcome)
			}
		}
	}
	if sheds != 2 {
		t.Fatalf("%d shed spans, want 2 (high-water 1, 3 concurrent)", sheds)
	}
	if rt.metrics("feed").Shed != 2 {
		t.Fatalf("shed counter: %+v", rt.metrics("feed"))
	}
}

// TestUntracedPathUnchangedWithRing pins zero-cost-off at the server: a
// runtime with a ring attached but an untraced caller emits no spans and
// serves the plain frame untouched.
func TestUntracedPathUnchangedWithRing(t *testing.T) {
	s, net := newNet()
	rt := NewRuntime(net.NewNode("server"))
	Register(rt, "feed", wire.DecodeFeed, echoFeed)
	ring := obs.NewTrace(64)
	rt.SetTrace(ring)
	cli := net.NewNode("client")
	s.Go(func() {
		resp, err := Invoke(Plain{Node: cli}, "server", "feed",
			&wire.Feed{Version: 7}, wire.DecodeFeed)
		if err != nil || resp.Version != 8 {
			t.Errorf("untraced call: resp=%+v err=%v", resp, err)
		}
	})
	s.Run()
	if n := ring.Len(); n != 0 {
		t.Fatalf("untraced call emitted %d spans", n)
	}
}
