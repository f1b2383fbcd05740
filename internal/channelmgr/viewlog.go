package channelmgr

import (
	"sync"
	"time"

	"p2pdrm/internal/simnet"
)

// ViewLog is the Channel Manager's viewing-activity log (§IV-C/§IV-D):
// every fresh Channel Ticket issue appends (UserIN, channel, NetAddr).
// Renewal consults the *latest* entry for (UserIN, channel): if its
// NetAddr differs from the renewing client's, the renewal is refused —
// this is the mechanism enforcing "an account can be used to join the
// same channel at most once at any given time" while letting a user move
// between computers without waiting out the old ticket.
//
// A farm shares one ViewLog (the paper: farm members "share a single
// network name/address, public/private key pair, and user viewing
// activity log", §V). It also serves license/royalty/billing audit needs,
// so it retains a bounded history.
type ViewLog struct {
	mu      sync.Mutex
	latest  map[viewKey]viewEntry
	history []viewEntry
	maxHist int
}

type viewKey struct {
	UserIN    uint64
	ChannelID string
}

// viewEntry is one logged ticket issue.
type viewEntry struct {
	UserIN    uint64
	ChannelID string
	NetAddr   simnet.Addr
	At        time.Time
}

// NewViewLog creates a log retaining up to maxHistory entries for audit
// (≤ 0 keeps 100 000).
func NewViewLog(maxHistory int) *ViewLog {
	if maxHistory <= 0 {
		maxHistory = 100000
	}
	return &ViewLog{
		latest:  make(map[viewKey]viewEntry),
		maxHist: maxHistory,
	}
}

// add records a fresh ticket issue.
func (l *ViewLog) add(userIN uint64, channelID string, addr simnet.Addr, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := viewEntry{UserIN: userIN, ChannelID: channelID, NetAddr: addr, At: at}
	l.latest[viewKey{UserIN: userIN, ChannelID: channelID}] = e
	if len(l.history) < l.maxHist {
		l.history = append(l.history, e)
	} else {
		copy(l.history, l.history[1:])
		l.history[len(l.history)-1] = e
	}
}

// last returns the most recent entry for (userIN, channelID).
func (l *ViewLog) last(userIN uint64, channelID string) (viewEntry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.latest[viewKey{UserIN: userIN, ChannelID: channelID}]
	return e, ok
}

// Len reports the number of retained history entries.
func (l *ViewLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.history)
}
