package obs

import (
	"sort"
	"time"
)

// Span-tree assembly: the causal view over the flat ring. Emission order
// is not trusted — spans from different scheduler lanes, retries, and a
// wrapped ring arrive out of order and possibly with their ancestors
// overwritten — so assembly sorts first and tolerates orphans.

// spanNode is one span with its causal children.
type spanNode struct {
	Span     Span
	Children []*spanNode
}

// Walk visits the subtree pre-order, depth-first.
func (n *spanNode) Walk(depth int, f func(depth int, n *spanNode)) {
	f(depth, n)
	for _, c := range n.Children {
		c.Walk(depth+1, f)
	}
}

// spanTree is one trace's assembled forest: the journey root (when its
// span survived the ring) plus any orphans whose parents did not.
type spanTree struct {
	Trace uint64
	// Root is the journey span (nil when it was overwritten or the trace
	// has no journey-kind span; Orphans then carries everything).
	Root *spanNode
	// Orphans are subtree roots whose parent span is missing — the
	// visible footprint of ring overflow or a partially sampled trace.
	Orphans []*spanNode
}

// Spans returns every span in the tree (root first, then orphans),
// pre-order.
func (t *spanTree) Spans() []Span {
	var out []Span
	visit := func(_ int, n *spanNode) { out = append(out, n.Span) }
	if t.Root != nil {
		t.Root.Walk(0, visit)
	}
	for _, o := range t.Orphans {
		o.Walk(0, visit)
	}
	return out
}

// buildTrees assembles per-trace span trees from an unordered span
// slice. Spans without a trace ID (the flat protocol-ring kinds) are
// ignored. The result is deterministic for any input order: spans are
// sorted by (Trace, Begin, ID) before linking, trees come back sorted
// by (first span begin, trace ID).
func buildTrees(spans []Span) []*spanTree {
	byTrace := make(map[uint64][]Span)
	for _, sp := range spans {
		if sp.Trace == 0 || sp.ID == 0 {
			continue
		}
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	trees := make([]*spanTree, 0, len(byTrace))
	for trace, group := range byTrace {
		sort.Slice(group, func(i, j int) bool {
			if !group[i].Begin.Equal(group[j].Begin) {
				return group[i].Begin.Before(group[j].Begin)
			}
			if group[i].ID != group[j].ID {
				return group[i].ID < group[j].ID
			}
			return group[i].Kind < group[j].Kind
		})
		nodes := make(map[uint64]*spanNode, len(group))
		order := make([]*spanNode, 0, len(group))
		for _, sp := range group {
			if _, dup := nodes[sp.ID]; dup {
				continue // identical re-emission; first (earliest) wins
			}
			n := &spanNode{Span: sp}
			nodes[sp.ID] = n
			order = append(order, n)
		}
		tree := &spanTree{Trace: trace}
		for _, n := range order {
			parent := nodes[n.Span.Parent]
			switch {
			case n.Span.Parent != 0 && parent != nil && parent != n:
				parent.Children = append(parent.Children, n)
			case n.Span.Kind == KindJourney && tree.Root == nil:
				tree.Root = n
			default:
				tree.Orphans = append(tree.Orphans, n)
			}
		}
		trees = append(trees, tree)
	}
	sort.Slice(trees, func(i, j int) bool {
		bi, bj := treeBegin(trees[i]), treeBegin(trees[j])
		if !bi.Equal(bj) {
			return bi.Before(bj)
		}
		return trees[i].Trace < trees[j].Trace
	})
	return trees
}

func treeBegin(t *spanTree) time.Time {
	if t.Root != nil {
		return t.Root.Span.Begin
	}
	if len(t.Orphans) > 0 {
		return t.Orphans[0].Span.Begin
	}
	return time.Time{}
}

// StageBreakdown is one stage of a journey's critical path: the
// contiguous client-side interval, split into the portion spent inside
// policy calls (transport attempts, backoff) and — when server spans
// made it into the ring — the handler-side service time, with the
// remainder being pure network latency plus queueing.
type StageBreakdown struct {
	Name     string
	Duration time.Duration
	// Call sums the policy-call spans under the stage (whole-call time
	// including retries and backoff).
	Call time.Duration
	// Server sums the handler-side server spans under the stage.
	Server time.Duration
	// Network is Call − Server when both are known: wire latency plus
	// manager queueing (never negative).
	Network  time.Duration
	Attempts int
	Retries  int
	Outcome  string
}

// CriticalPath is the per-stage breakdown of one journey: where the
// journey's wall-clock went. Stages tile the journey interval, so
// Total always equals the sum of stage durations exactly.
type CriticalPath struct {
	Trace   uint64
	Journey string // root span name ("login", "switch")
	Node    string // client node address
	Begin   time.Time
	Total   time.Duration
	Outcome string
	Stages  []StageBreakdown
	// Marks are the journey's zero-duration milestones (first_key,
	// first_decrypt) as offsets from the journey begin.
	Marks map[string]time.Duration
}

// extractCriticalPath computes a journey's stage breakdown from its
// assembled tree. Returns ok=false when the tree has no journey root.
func extractCriticalPath(t *spanTree) (CriticalPath, bool) {
	if t == nil || t.Root == nil {
		return CriticalPath{}, false
	}
	root := t.Root.Span
	cp := CriticalPath{
		Trace:   t.Trace,
		Journey: root.Name,
		Node:    root.Node,
		Begin:   root.Begin,
		Total:   root.duration(),
		Outcome: root.Outcome,
		Marks:   make(map[string]time.Duration),
	}
	for _, child := range t.Root.Children {
		sp := child.Span
		switch sp.Kind {
		case KindStage:
			st := StageBreakdown{Name: sp.Name, Duration: sp.duration(), Outcome: sp.Outcome}
			// Calls sit directly under the stage; server spans parent under
			// the call that caused them — walk the whole stage subtree.
			child.Walk(0, func(depth int, g *spanNode) {
				if depth == 0 {
					return
				}
				gs := g.Span
				switch gs.Kind {
				case KindCall:
					st.Call += gs.duration()
					st.Attempts += gs.Attempts
					st.Retries += gs.Retries
				case KindServer:
					st.Server += gs.duration()
				}
			})
			if st.Call > st.Server {
				st.Network = st.Call - st.Server
			}
			cp.Stages = append(cp.Stages, st)
		case KindMark:
			cp.Marks[sp.Name] = sp.Begin.Sub(root.Begin)
		}
	}
	return cp, true
}

// CriticalPaths extracts every journey breakdown from a span slice,
// sorted by (begin, trace).
func CriticalPaths(spans []Span) []CriticalPath {
	var out []CriticalPath
	for _, t := range buildTrees(spans) {
		if cp, ok := extractCriticalPath(t); ok {
			out = append(out, cp)
		}
	}
	return out
}
