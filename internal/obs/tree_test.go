package obs

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// journeyFixture builds a realistic login-journey span set: a journey
// root, three tiling stages, a call + server pair under one stage, and
// a mark — returned in emission order.
func journeyFixture() []Span {
	base := time.Date(2008, 6, 23, 20, 0, 0, 0, time.UTC)
	trace := TraceIDFor(42, "alice@example.com#0")
	root := SpanID(trace, 0, "login", 0)
	stRedirect := SpanID(trace, root, "redirect", 1)
	stLogin1 := SpanID(trace, root, "login1", 2)
	stLogin2 := SpanID(trace, root, "login2", 3)
	call1 := SpanID(trace, stLogin1, "call:drm.login1", 4)
	srv1 := SpanID(trace, call1, "drm.login1", uint64(base.Add(25*time.Millisecond).UnixNano()))
	at := func(d time.Duration) time.Time { return base.Add(d) }
	return []Span{
		{Trace: trace, ID: root, Begin: base, End: at(143 * time.Millisecond),
			Kind: KindJourney, Name: "login", Node: "client.alice", Outcome: "ok"},
		{Trace: trace, ID: stRedirect, Parent: root, Begin: base, End: at(20 * time.Millisecond),
			Kind: KindStage, Name: "redirect", Outcome: "ok"},
		{Trace: trace, ID: stLogin1, Parent: root, Begin: at(20 * time.Millisecond), End: at(80 * time.Millisecond),
			Kind: KindStage, Name: "login1", Outcome: "ok"},
		{Trace: trace, ID: stLogin2, Parent: root, Begin: at(80 * time.Millisecond), End: at(143 * time.Millisecond),
			Kind: KindStage, Name: "login2", Outcome: "ok"},
		{Trace: trace, ID: call1, Parent: stLogin1, Begin: at(22 * time.Millisecond), End: at(78 * time.Millisecond),
			Kind: KindCall, Service: "drm.login1", Dest: "um.3", Attempts: 2, Retries: 1, Outcome: "ok"},
		{Trace: trace, ID: srv1, Parent: call1, Begin: at(40 * time.Millisecond), End: at(52 * time.Millisecond),
			Kind: KindServer, Service: "drm.login1", Node: "um.3", Outcome: "ok"},
		{Trace: trace, ID: SpanID(trace, root, "first_key", 5), Parent: root,
			Begin: at(120 * time.Millisecond), End: at(120 * time.Millisecond),
			Kind: KindMark, Name: "first_key"},
	}
}

func TestBuildTreesAssemblesJourney(t *testing.T) {
	trees := buildTrees(journeyFixture())
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	tr := trees[0]
	if tr.Root == nil || tr.Root.Span.Name != "login" {
		t.Fatalf("missing journey root: %+v", tr)
	}
	if len(tr.Orphans) != 0 {
		t.Fatalf("unexpected orphans: %d", len(tr.Orphans))
	}
	if got := len(tr.Root.Children); got != 4 { // 3 stages + 1 mark
		t.Fatalf("root has %d children, want 4", got)
	}
	// login1 stage carries the call, which carries the server span.
	var login1 *spanNode
	for _, c := range tr.Root.Children {
		if c.Span.Name == "login1" {
			login1 = c
		}
	}
	if login1 == nil || len(login1.Children) != 1 {
		t.Fatalf("login1 stage missing its call child")
	}
	call := login1.Children[0]
	if call.Span.Kind != KindCall || len(call.Children) != 1 || call.Children[0].Span.Kind != KindServer {
		t.Fatalf("call → server chain broken: %+v", call.Span)
	}
}

func TestBuildTreesOrderInvariant(t *testing.T) {
	want := buildTrees(journeyFixture())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		shuffled := journeyFixture()
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		got := buildTrees(shuffled)
		if !reflect.DeepEqual(spanMatrix(got), spanMatrix(want)) {
			t.Fatalf("tree differs for shuffle %d", i)
		}
	}
}

func spanMatrix(trees []*spanTree) [][]Span {
	out := make([][]Span, len(trees))
	for i, t := range trees {
		out[i] = t.Spans()
	}
	return out
}

func TestBuildTreesOrphans(t *testing.T) {
	spans := journeyFixture()
	// Drop the login1 stage: its call subtree must surface as an orphan,
	// not vanish.
	var cut []Span
	for _, sp := range spans {
		if sp.Kind == KindStage && sp.Name == "login1" {
			continue
		}
		cut = append(cut, sp)
	}
	trees := buildTrees(cut)
	if len(trees) != 1 {
		t.Fatalf("got %d trees", len(trees))
	}
	tr := trees[0]
	if tr.Root == nil {
		t.Fatal("root lost")
	}
	if len(tr.Orphans) != 1 || tr.Orphans[0].Span.Kind != KindCall {
		t.Fatalf("expected the call as a single orphan, got %+v", tr.Orphans)
	}
	if len(tr.Orphans[0].Children) != 1 {
		t.Fatal("orphaned call lost its server child")
	}

	// Drop the journey root itself: everything becomes orphans, no root.
	trees = buildTrees(spans[1:])
	if trees[0].Root != nil {
		t.Fatal("root should be nil when the journey span is dropped")
	}
	if len(trees[0].Orphans) != 4 { // 3 stages + mark; call/server still chained under login1
		t.Fatalf("got %d orphans, want 4", len(trees[0].Orphans))
	}
}

func TestBuildTreesIgnoresFlatSpans(t *testing.T) {
	spans := append(journeyFixture(),
		Span{Kind: KindBreakerOpen, Dest: "cm.vip"}, // no trace/ID: flat ring span
		Span{Kind: KindCall, Service: "drm.switch1"},
	)
	trees := buildTrees(spans)
	if len(trees) != 1 {
		t.Fatalf("flat spans must not create trees: %d", len(trees))
	}
}

func TestExtractCriticalPath(t *testing.T) {
	trees := buildTrees(journeyFixture())
	cp, ok := extractCriticalPath(trees[0])
	if !ok {
		t.Fatal("no critical path")
	}
	if cp.Journey != "login" || cp.Total != 143*time.Millisecond {
		t.Fatalf("journey %q total %v", cp.Journey, cp.Total)
	}
	if len(cp.Stages) != 3 {
		t.Fatalf("got %d stages, want 3", len(cp.Stages))
	}
	var sum time.Duration
	for _, st := range cp.Stages {
		sum += st.Duration
	}
	if sum != cp.Total {
		t.Fatalf("stages sum to %v, journey total %v — stages must tile the journey", sum, cp.Total)
	}
	login1 := cp.Stages[1]
	if login1.Name != "login1" || login1.Call != 56*time.Millisecond ||
		login1.Server != 12*time.Millisecond || login1.Network != 44*time.Millisecond {
		t.Fatalf("login1 breakdown wrong: %+v", login1)
	}
	if login1.Attempts != 2 || login1.Retries != 1 {
		t.Fatalf("login1 attempts/retries: %+v", login1)
	}
	if cp.Marks["first_key"] != 120*time.Millisecond {
		t.Fatalf("first_key mark at %v", cp.Marks["first_key"])
	}
}

func TestSpanIDDeterministicAndNonZero(t *testing.T) {
	a := SpanID(1, 2, "login1", 3)
	if a != SpanID(1, 2, "login1", 3) {
		t.Fatal("SpanID not deterministic")
	}
	if a == SpanID(1, 2, "login1", 4) || a == SpanID(1, 2, "login2", 3) || a == SpanID(1, 3, "login1", 3) {
		t.Fatal("SpanID collision across distinct inputs")
	}
	if TraceIDFor(0, "") == 0 || SpanID(0, 0, "", 0) == 0 {
		t.Fatal("IDs must never be zero")
	}
}

func TestSampledDeterministicRate(t *testing.T) {
	hits := 0
	const n, every = 10000, 16
	for i := 0; i < n; i++ {
		key := time.Duration(i).String() + "@example.com"
		if Sampled(7, key, every) != Sampled(7, key, every) {
			t.Fatal("Sampled not deterministic")
		}
		if Sampled(7, key, every) {
			hits++
		}
	}
	// 1-in-16 over 10k keys: expect ~625, allow generous slack.
	if hits < 400 || hits > 900 {
		t.Fatalf("sampling rate off: %d/%d at 1-in-%d", hits, n, every)
	}
	if !Sampled(7, "anyone", 1) || !Sampled(7, "anyone", 0) {
		t.Fatal("every<=1 must sample everything")
	}
}
