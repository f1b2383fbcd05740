package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"p2pdrm/internal/feedback"
	"p2pdrm/internal/obs"
)

// WriteCriticalPathCSV exports one row per journey stage: the critical
// path of every assembled trace, flattened for spreadsheet analysis.
func WriteCriticalPathCSV(w io.Writer, t *obs.Trace) error {
	if t == nil {
		return nil
	}
	if _, err := fmt.Fprintln(w, "trace,journey,node,outcome,stage,duration_us,call_us,server_us,network_us,attempts,retries,stage_outcome"); err != nil {
		return err
	}
	for _, cp := range obs.CriticalPaths(t.Spans()) {
		for _, st := range cp.Stages {
			if _, err := fmt.Fprintf(w, "%016x,%s,%s,%s,%s,%d,%d,%d,%d,%d,%d,%s\n",
				cp.Trace, cp.Journey, cp.Node, cp.Outcome, st.Name,
				st.Duration.Microseconds(), st.Call.Microseconds(),
				st.Server.Microseconds(), st.Network.Microseconds(),
				st.Attempts, st.Retries, st.Outcome); err != nil {
				return err
			}
		}
	}
	return nil
}

// stageAgg accumulates one stage name's distribution across every
// journey of one name.
type stageAgg struct {
	name     string
	durs     []time.Duration
	call     time.Duration
	server   time.Duration
	network  time.Duration
	attempts int
	retries  int
}

// RenderJourneyBreakdown answers "where does the time go": for each
// journey name (login, switch) it aggregates the critical paths of every
// completed trace into a per-stage table — count, median and p95 stage
// duration, and the stage's total call/server/network split with attempt
// and retry counts. A final line reports the ring's overflow so a
// truncated view is never mistaken for the whole run.
func RenderJourneyBreakdown(t *obs.Trace) string {
	var b strings.Builder
	if t == nil {
		return ""
	}
	paths := obs.CriticalPaths(t.Spans())
	byJourney := make(map[string][]obs.CriticalPath)
	var names []string
	for _, cp := range paths {
		if _, ok := byJourney[cp.Journey]; !ok {
			names = append(names, cp.Journey)
		}
		byJourney[cp.Journey] = append(byJourney[cp.Journey], cp)
	}
	sort.Strings(names)
	for _, name := range names {
		group := byJourney[name]
		var totals []time.Duration
		stages := make(map[string]*stageAgg)
		var order []string
		for _, cp := range group {
			totals = append(totals, cp.Total)
			for _, st := range cp.Stages {
				agg, ok := stages[st.Name]
				if !ok {
					agg = &stageAgg{name: st.Name}
					stages[st.Name] = agg
					order = append(order, st.Name)
				}
				agg.durs = append(agg.durs, st.Duration)
				agg.call += st.Call
				agg.server += st.Server
				agg.network += st.Network
				agg.attempts += st.Attempts
				agg.retries += st.Retries
			}
		}
		fmt.Fprintf(&b, "journey %-8s %d traced  total median %v  p95 %v\n",
			name, len(group), feedback.Median(totals).Round(time.Millisecond),
			feedback.Quantile(totals, 0.95).Round(time.Millisecond))
		fmt.Fprintf(&b, "  %-12s %6s %10s %10s %10s %10s %10s %9s %8s\n",
			"stage", "count", "median", "p95", "call", "server", "network", "attempts", "retries")
		for _, sn := range order {
			agg := stages[sn]
			fmt.Fprintf(&b, "  %-12s %6d %10v %10v %10v %10v %10v %9d %8d\n",
				agg.name, len(agg.durs),
				feedback.Median(agg.durs).Round(100*time.Microsecond),
				feedback.Quantile(agg.durs, 0.95).Round(100*time.Microsecond),
				agg.call.Round(time.Millisecond), agg.server.Round(time.Millisecond),
				agg.network.Round(time.Millisecond), agg.attempts, agg.retries)
		}
	}
	fmt.Fprintf(&b, "%d spans emitted, %d retained, %d dropped by the ring\n",
		t.Total(), t.Len(), t.Dropped())
	return b.String()
}
