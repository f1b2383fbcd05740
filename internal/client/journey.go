package client

import (
	"errors"
	"sync"
	"time"

	"p2pdrm/internal/obs"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/wire"
)

// journey is the causal context of one viewer journey (a login or a
// channel switch). It owns a trace ID, emits the journey root span and
// the contiguous stage spans that tile the journey interval exactly —
// stage durations always sum to the journey duration — and hands the
// current stage's context to the transport so downstream call and
// server spans thread into the same tree.
//
// A nil *journey is the untraced journey: every method is a nil-safe
// no-op, so protocol code threads it unconditionally. Stage transitions
// run on the protocol goroutine; only marks (first_key, first_decrypt)
// can arrive from other simulated goroutines, guarded separately.
type journey struct {
	c     *Client
	trace uint64
	root  uint64
	name  string
	begin time.Time

	// Current open stage (protocol goroutine only).
	stage      string
	stageID    uint64
	stageBegin time.Time
	seq        uint64 // salts stage/restart span IDs across retries

	markMu sync.Mutex
	marked map[string]bool
}

// beginJourney opens a traced journey, or returns nil when this client
// is not in the traced cohort (no ring, or no trace identity). The
// journey's trace ID is derived from the client's TraceID, the journey
// name, and a per-client sequence — pure hashes, no global counters, so
// IDs are identical at any shard count.
func (c *Client) beginJourney(name string) *journey {
	if c.cfg.Trace == nil || c.cfg.TraceID == 0 {
		return nil
	}
	c.mu.Lock()
	n := c.journeySeq
	c.journeySeq++
	c.mu.Unlock()
	trace := obs.SpanID(c.cfg.TraceID, 0, name, n)
	return &journey{
		c:      c,
		trace:  trace,
		root:   obs.SpanID(trace, 0, name, 0),
		name:   name,
		begin:  c.node.Scheduler().Now(),
		marked: make(map[string]bool),
	}
}

// enter closes the open stage (outcome "ok") and opens the named one at
// the same instant, keeping stages contiguous.
func (j *journey) enter(stage string) {
	if j == nil {
		return
	}
	j.closeStage("ok")
	j.seq++
	j.stage = stage
	j.stageID = obs.SpanID(j.trace, j.root, stage, j.seq)
	j.stageBegin = j.c.node.Scheduler().Now()
}

// closeStage emits the open stage span (no-op when none is open).
func (j *journey) closeStage(outcome string) {
	if j == nil || j.stage == "" {
		return
	}
	j.c.cfg.Trace.Emit(obs.Span{
		Trace: j.trace, ID: j.stageID, Parent: j.root,
		Begin: j.stageBegin, End: j.c.node.Scheduler().Now(),
		Kind: obs.KindStage, Name: j.stage, Outcome: outcome,
	})
	j.stage = ""
}

// ctx is the trace context requests emitted now should carry: the open
// stage, or the journey root between stages.
func (j *journey) ctx() wire.TraceCtx {
	if j == nil {
		return wire.TraceCtx{}
	}
	if j.stage != "" {
		return wire.TraceCtx{Trace: j.trace, Span: j.stageID}
	}
	return wire.TraceCtx{Trace: j.trace, Span: j.root}
}

// mark emits a zero-duration milestone parented to the journey root,
// once per name. Marks may fire after the journey has finished (a
// content key landing moments after the switch completed); the span
// tree tolerates children outside the root interval.
func (j *journey) mark(name string) {
	if j == nil {
		return
	}
	j.markMu.Lock()
	if j.marked[name] {
		j.markMu.Unlock()
		return
	}
	j.marked[name] = true
	j.markMu.Unlock()
	now := j.c.node.Scheduler().Now()
	j.c.cfg.Trace.Emit(obs.Span{
		Trace: j.trace, ID: obs.SpanID(j.trace, j.root, name, 0), Parent: j.root,
		Begin: now, End: now,
		Kind: obs.KindMark, Name: name, Node: string(j.c.node.Addr()),
	})
}

// finish closes the last stage and emits the journey root, both with
// the journey's final outcome.
func (j *journey) finish(err error) {
	if j == nil {
		return
	}
	out := journeyOutcome(err)
	j.closeStage(out)
	j.c.cfg.Trace.Emit(obs.Span{
		Trace: j.trace, ID: j.root,
		Begin: j.begin, End: j.c.node.Scheduler().Now(),
		Kind: obs.KindJourney, Name: j.name,
		Node: string(j.c.node.Addr()), Outcome: out,
	})
}

// traced wraps a transport with the journey's current stage context (the
// identity for an untraced journey).
func (c *Client) traced(j *journey, t svc.Transport) svc.Transport {
	if j == nil {
		return t
	}
	return svc.Traced{Inner: t, Ctx: j.ctx()}
}

// journeyOutcome classifies a journey's final error for its spans.
func journeyOutcome(err error) string {
	if err == nil {
		return "ok"
	}
	var se *wire.ServiceError
	if errors.As(err, &se) {
		return se.Code.String()
	}
	if errors.Is(err, simnet.ErrRPCTimeout) {
		return "timeout"
	}
	return "error"
}
