package channelmgr

import (
	"testing"
	"time"

	"p2pdrm/internal/geo"
)

func seedLog() (*ViewLog, time.Time) {
	l := NewViewLog(0)
	base := time.Date(2008, 6, 23, 18, 0, 0, 0, time.UTC)
	// chA: users 1,2,3 (user 1 twice — a move); chB: user 1.
	l.add(1, "chA", geo.Addr(1, 1, 1), base)
	l.add(2, "chA", geo.Addr(1, 1, 2), base.Add(5*time.Minute))
	l.add(1, "chA", geo.Addr(1, 1, 9), base.Add(10*time.Minute)) // moved
	l.add(3, "chA", geo.Addr(1, 1, 3), base.Add(20*time.Minute))
	l.add(1, "chB", geo.Addr(1, 1, 9), base.Add(30*time.Minute))
	// Outside the window:
	l.add(4, "chA", geo.Addr(1, 1, 4), base.Add(2*time.Hour))
	return l, base
}

func TestUsageAggregation(t *testing.T) {
	l, base := seedLog()
	usage := l.Usage(base, base.Add(time.Hour))
	if len(usage) != 2 {
		t.Fatalf("channels = %d, want 2", len(usage))
	}
	a := usage[0]
	if a.ChannelID != "chA" || a.TicketIssues != 4 || a.UniqueViewers != 3 {
		t.Fatalf("chA usage = %+v", a)
	}
	if !a.FirstAt.Equal(base) || !a.LastAt.Equal(base.Add(20*time.Minute)) {
		t.Fatalf("chA window = %v..%v", a.FirstAt, a.LastAt)
	}
	b := usage[1]
	if b.ChannelID != "chB" || b.TicketIssues != 1 || b.UniqueViewers != 1 {
		t.Fatalf("chB usage = %+v", b)
	}
}

func TestUsageWindowBounds(t *testing.T) {
	l, base := seedLog()
	// A window containing only the 2h-later event.
	usage := l.Usage(base.Add(90*time.Minute), base.Add(3*time.Hour))
	if len(usage) != 1 || usage[0].TicketIssues != 1 || usage[0].UniqueViewers != 1 {
		t.Fatalf("late-window usage = %+v", usage)
	}
	if got := l.Usage(base.Add(-2*time.Hour), base); len(got) != 0 {
		t.Fatalf("empty-window usage = %+v", got)
	}
}

func TestUsageOrdering(t *testing.T) {
	l := NewViewLog(0)
	base := time.Date(2008, 6, 23, 18, 0, 0, 0, time.UTC)
	l.add(1, "quiet", geo.Addr(1, 1, 1), base)
	for i := 0; i < 5; i++ {
		l.add(uint64(i+10), "busy", geo.Addr(1, 1, i+2), base.Add(time.Duration(i)*time.Minute))
	}
	usage := l.Usage(base, base.Add(time.Hour))
	if usage[0].ChannelID != "busy" || usage[1].ChannelID != "quiet" {
		t.Fatalf("ordering = %v, %v", usage[0].ChannelID, usage[1].ChannelID)
	}
}
