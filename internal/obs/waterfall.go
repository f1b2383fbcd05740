package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Waterfall renderer: one journey tree as a depth-indented text chart,
// each span a scaled bar positioned on the journey's timeline. Pure
// function of the tree — deterministic output for the golden test.

const waterfallCols = 48

// renderWaterfall renders one assembled trace tree. The chart is scaled
// so the root (or, without a root, the orphan envelope) spans the full
// bar width.
func renderWaterfall(w io.Writer, t *spanTree) {
	if t == nil {
		return
	}
	begin, end := waterfallExtent(t)
	total := end.Sub(begin)
	if total <= 0 {
		total = time.Nanosecond
	}
	fmt.Fprintf(w, "trace %016x  (%s total)\n", t.Trace, end.Sub(begin))
	line := func(depth int, n *spanNode) {
		sp := n.Span
		startCol := int(int64(waterfallCols) * int64(sp.Begin.Sub(begin)) / int64(total))
		widthCol := int(int64(waterfallCols) * int64(sp.duration()) / int64(total))
		if startCol > waterfallCols {
			startCol = waterfallCols
		}
		if widthCol < 1 {
			widthCol = 1
		}
		if startCol+widthCol > waterfallCols {
			widthCol = waterfallCols - startCol
			if widthCol < 1 {
				startCol, widthCol = waterfallCols-1, 1
			}
		}
		glyph := "="
		if sp.Kind == KindMark || sp.duration() <= 0 {
			glyph = "|"
		}
		bar := strings.Repeat(" ", startCol) + strings.Repeat(glyph, widthCol) +
			strings.Repeat(" ", waterfallCols-startCol-widthCol)
		label := strings.Repeat("  ", depth) + waterfallLabel(sp)
		fmt.Fprintf(w, "  %-34s [%s] +%-10s %s\n",
			clip(label, 34), bar, sp.Begin.Sub(begin), durLabel(sp))
	}
	if t.Root != nil {
		t.Root.Walk(0, line)
	}
	for _, o := range t.Orphans {
		fmt.Fprintln(w, "  (orphaned subtree — parent span dropped)")
		o.Walk(1, line)
	}
}

// RenderWaterfalls renders every tree assembled from spans, separated by
// blank lines, followed by a drop-accounting footer.
func RenderWaterfalls(w io.Writer, spans []Span, total, dropped int64) {
	trees := buildTrees(spans)
	for i, t := range trees {
		if i > 0 {
			fmt.Fprintln(w)
		}
		renderWaterfall(w, t)
	}
	fmt.Fprintf(w, "\n%d traces, %d spans emitted, %d dropped by the ring\n",
		len(trees), total, dropped)
}

func waterfallExtent(t *spanTree) (time.Time, time.Time) {
	if t.Root != nil {
		begin, end := t.Root.Span.Begin, t.Root.Span.End
		// Marks may land after the journey closes; stretch to include them.
		t.Root.Walk(0, func(_ int, n *spanNode) {
			if n.Span.End.After(end) {
				end = n.Span.End
			}
		})
		return begin, end
	}
	var begin, end time.Time
	for _, o := range t.Orphans {
		o.Walk(0, func(_ int, n *spanNode) {
			if begin.IsZero() || n.Span.Begin.Before(begin) {
				begin = n.Span.Begin
			}
			if n.Span.End.After(end) {
				end = n.Span.End
			}
		})
	}
	return begin, end
}

func waterfallLabel(sp Span) string {
	name := sp.Name
	if name == "" {
		name = sp.Service
	}
	s := sp.Kind
	if name != "" {
		s += " " + name
	}
	if sp.Outcome != "" && sp.Outcome != "ok" {
		s += " !" + sp.Outcome
	}
	if sp.Retries > 0 {
		s += fmt.Sprintf(" (%d retries)", sp.Retries)
	}
	return s
}

func durLabel(sp Span) string {
	if sp.Kind == KindMark || sp.duration() <= 0 {
		return "mark"
	}
	return sp.duration().String()
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
