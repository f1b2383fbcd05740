package channelmgr

import (
	"sort"
	"time"
)

// ChannelUsage aggregates one channel's viewing activity over a window —
// the §II compliance uses of the viewing log: "to comply with
// regulations concerning payment of television licensing fees and
// copyright royalties, to enforce per-view payment of paid contents, and
// to track viewing rate for advertisement purposes."
type ChannelUsage struct {
	ChannelID     string
	UniqueViewers int // distinct UserINs
	TicketIssues  int // fresh Channel Tickets (view starts / moves)
	FirstAt       time.Time
	LastAt        time.Time
}

// Usage reports per-channel activity in [from, to), ordered by ticket
// issues descending (the viewing-rate ranking), ties by channel id.
func (l *ViewLog) Usage(from, to time.Time) []ChannelUsage {
	l.mu.Lock()
	defer l.mu.Unlock()

	type agg struct {
		usage ChannelUsage
		users map[uint64]bool
	}
	byChannel := make(map[string]*agg)
	for _, e := range l.history {
		if e.At.Before(from) || !e.At.Before(to) {
			continue
		}
		a, ok := byChannel[e.ChannelID]
		if !ok {
			a = &agg{
				usage: ChannelUsage{ChannelID: e.ChannelID, FirstAt: e.At, LastAt: e.At},
				users: make(map[uint64]bool),
			}
			byChannel[e.ChannelID] = a
		}
		a.usage.TicketIssues++
		a.users[e.UserIN] = true
		if e.At.Before(a.usage.FirstAt) {
			a.usage.FirstAt = e.At
		}
		if e.At.After(a.usage.LastAt) {
			a.usage.LastAt = e.At
		}
	}
	out := make([]ChannelUsage, 0, len(byChannel))
	for _, a := range byChannel {
		a.usage.UniqueViewers = len(a.users)
		out = append(out, a.usage)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TicketIssues != out[j].TicketIssues {
			return out[i].TicketIssues > out[j].TicketIssues
		}
		return out[i].ChannelID < out[j].ChannelID
	})
	return out
}
