package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one trace event. The flat kinds from the original protocol
// ring are emitted at the svc.Transport/Policy seam; the causal kinds
// carry Trace/ID/Parent and assemble into per-journey span trees
// (see tree.go). Kinds:
//
//	call         one whole policy call (all attempts), Outcome "ok",
//	             a wire.Code name, or a transport classification
//	reject       a call refused locally by an open circuit breaker
//	breaker_open the moment a destination's breaker trips
//	restart      a protocol-level restart (re-running round 1 after a
//	             one-time round-2 token was lost)
//	journey      the root of one viewer journey (login, switch)
//	stage        one contiguous client-side stage of a journey
//	             (redirect, login1, join, ...); stages tile the journey
//	             interval exactly, so their durations sum to it
//	server       the handler-side interval of one traced request
//	shed         a request refused at the admission high-water mark
//	mark         a zero-duration milestone (first_key, first_decrypt)
//
// Times are simulation-clock instants. The JSON field order below is
// the JSONL schema; encoding/json emits struct fields in declaration
// order, so exports are byte-deterministic.
// Span kinds.
const (
	KindCall        = "call"
	KindReject      = "reject"
	KindBreakerOpen = "breaker_open"
	KindRestart     = "restart"
	KindJourney     = "journey"
	KindStage       = "stage"
	KindServer      = "server"
	KindShed        = "shed"
	KindMark        = "mark"
)

type Span struct {
	Trace    uint64    `json:"trace,omitempty"`
	ID       uint64    `json:"id,omitempty"`
	Parent   uint64    `json:"parent,omitempty"`
	Begin    time.Time `json:"begin"`
	End      time.Time `json:"end"`
	Kind     string    `json:"kind"`
	Name     string    `json:"name,omitempty"`
	Node     string    `json:"node,omitempty"`
	Service  string    `json:"service,omitempty"`
	Dest     string    `json:"dest,omitempty"`
	Attempts int       `json:"attempts,omitempty"`
	Retries  int       `json:"retries,omitempty"`
	Outcome  string    `json:"outcome,omitempty"`
	Detail   string    `json:"detail,omitempty"`
}

// Duration is the span's extent on the simulation clock.
func (sp Span) Duration() time.Duration { return sp.End.Sub(sp.Begin) }

// Trace is a bounded ring of spans. A nil *Trace is the disabled
// tracer: Emit on it is a no-op with zero allocations, so callers
// thread an optional *Trace without guarding every call site. When
// the ring is full the oldest span is overwritten; Total still counts
// every emit.
type Trace struct {
	mu    sync.Mutex
	buf   []Span
	max   int
	next  int // write cursor once the ring has wrapped
	total int64
}

// NewTrace creates a trace ring holding at most capacity spans.
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{buf: make([]Span, 0, capacity), max: capacity}
}

// Emit records a span (no-op on a nil trace). The span is copied by
// value into a preallocated slot: no allocation after the ring fills.
func (t *Trace) Emit(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) < t.max {
		t.buf = append(t.buf, sp)
	} else {
		t.buf[t.next] = sp
		t.next++
		if t.next == t.max {
			t.next = 0
		}
	}
	t.total++
	t.mu.Unlock()
}

// Len returns the number of retained spans (nil-safe).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Total returns the number of spans ever emitted, including ones the
// ring has since overwritten (nil-safe).
func (t *Trace) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many emitted spans the ring has since overwritten
// (nil-safe). Exports surface this instead of silently truncating.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - int64(len(t.buf))
}

// Spans returns the retained spans oldest-first (nil-safe).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// footer is the JSONL trailer line accounting for ring overflow: every
// export ends with it, so a reader always learns how many spans the
// bounded ring dropped instead of silently reading a truncated record.
type footer struct {
	Kind     string `json:"kind"` // always kindFooter
	Total    int64  `json:"total"`
	Retained int    `json:"retained"`
	Dropped  int64  `json:"dropped"`
}

// kindFooter marks the JSONL trailer line (not a span kind).
const kindFooter = "trace_footer"

// WriteJSONL writes the retained spans oldest-first, one JSON object
// per line, fields in Span declaration order, followed by a footer line
// reporting total emitted / retained / dropped counts.
func (t *Trace) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w) // Encode appends the newline
	spans := t.Spans()
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return enc.Encode(footer{
		Kind: kindFooter, Total: t.Total(), Retained: len(spans), Dropped: t.Dropped(),
	})
}
