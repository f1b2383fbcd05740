package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace_event exporter: spans rendered as "X" (complete) duration
// events, one pid per trace, one tid per node, loadable straight into
// Perfetto / chrome://tracing. Output is byte-deterministic: ordered
// structs, spans sorted by (Trace, Begin, ID), and timestamps expressed
// as microsecond offsets on the simulation clock.

// traceEvent is one entry in the trace_event "traceEvents" array. Field
// order is the wire schema; encoding/json preserves declaration order.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`            // microseconds
	Dur  int64          `json:"dur,omitempty"` // microseconds, "X" only
	Pid  uint64         `json:"pid"`
	Tid  string         `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceEventFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	Metadata        traceEventMD `json:"metadata"`
}

type traceEventMD struct {
	Total    int64 `json:"spans_total"`
	Retained int   `json:"spans_retained"`
	Dropped  int64 `json:"spans_dropped"`
}

// WriteTraceEvents renders spans as a Chrome trace_event JSON document.
// Zero-duration marks become instant ("i") events; everything else is a
// complete ("X") event. total/dropped feed the metadata block so the
// ring-overflow accounting survives into this export too.
func WriteTraceEvents(w io.Writer, spans []Span, total, dropped int64) error {
	ordered := append([]Span(nil), spans...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Trace != ordered[j].Trace {
			return ordered[i].Trace < ordered[j].Trace
		}
		if !ordered[i].Begin.Equal(ordered[j].Begin) {
			return ordered[i].Begin.Before(ordered[j].Begin)
		}
		return ordered[i].ID < ordered[j].ID
	})
	file := traceEventFile{
		TraceEvents:     make([]traceEvent, 0, len(ordered)),
		DisplayTimeUnit: "ms",
		Metadata:        traceEventMD{Total: total, Retained: len(ordered), Dropped: dropped},
	}
	for _, sp := range ordered {
		ev := traceEvent{
			Name: eventName(sp),
			Ph:   "X",
			Ts:   sp.Begin.UnixMicro(),
			Dur:  sp.duration().Microseconds(),
			Pid:  sp.Trace,
			Tid:  sp.Node,
			Cat:  sp.Kind,
		}
		if ev.Tid == "" {
			ev.Tid = "-"
		}
		if sp.Kind == KindMark || sp.duration() <= 0 {
			ev.Ph = "i"
			ev.Dur = 0
		}
		args := map[string]any{}
		if sp.ID != 0 {
			args["span"] = fmt.Sprintf("%016x", sp.ID)
		}
		if sp.Parent != 0 {
			args["parent"] = fmt.Sprintf("%016x", sp.Parent)
		}
		if sp.Outcome != "" {
			args["outcome"] = sp.Outcome
		}
		if sp.Service != "" {
			args["service"] = sp.Service
		}
		if sp.Dest != "" {
			args["dest"] = sp.Dest
		}
		if sp.Attempts > 0 {
			args["attempts"] = sp.Attempts
		}
		if sp.Retries > 0 {
			args["retries"] = sp.Retries
		}
		if sp.Detail != "" {
			args["detail"] = sp.Detail
		}
		if len(args) > 0 {
			ev.Args = args
		}
		file.TraceEvents = append(file.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(file)
}

func eventName(sp Span) string {
	if sp.Name != "" {
		return sp.Name
	}
	if sp.Service != "" {
		return sp.Kind + ":" + sp.Service
	}
	return sp.Kind
}
