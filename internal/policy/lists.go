package policy

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
)

// Lineup is one decoded Channel List: its channels in list order, and the
// same channels by ID.
type Lineup struct {
	Channels []*Channel
	ByID     map[string]*Channel
}

// listsCap bounds the versions a Lists keeps. In steady state every fetch
// and feed carries the current lineup; an older one arrives only while a
// message that carries it is still in flight.
const listsCap = 4

// Lists is a deployment's memo of decoded Channel Lists: one Lineup per
// encoded version, keyed on the exact bytes. Every client and Channel
// Manager backend of a deployment decodes through the one Lists, so a
// lineup is decoded once however many logins fetch it. A Lineup from
// Decode is shared: it, its channels and their attributes, rules and keys
// are read-only to every holder. Safe for concurrent use.
type Lists struct {
	mu     sync.Mutex
	recent []listEntry // newest first, at most listsCap
}

type listEntry struct {
	enc    []byte // a private copy of the encoding
	lineup *Lineup
}

// NewLists returns an empty memo.
func NewLists() *Lists { return &Lists{} }

// Decode returns the Lineup that b, an AppendChannels encoding with
// nothing after it, decodes to. Bytes decoded before return the same
// Lineup. A nil Lists decodes afresh on every call.
func (m *Lists) Decode(b []byte) (*Lineup, error) {
	if m != nil {
		m.mu.Lock()
		l := m.lookupLocked(b)
		m.mu.Unlock()
		if l != nil {
			return l, nil
		}
	}
	chs, rest, err := decodeChannels(b)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("policy: %d bytes after the channel list", len(rest))
	}
	l := &Lineup{Channels: chs, ByID: make(map[string]*Channel, len(chs))}
	for _, c := range chs {
		l.ByID[c.ID] = c
	}
	if m == nil {
		return l, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev := m.lookupLocked(b); prev != nil {
		return prev, nil // a concurrent Decode of the same bytes got there first
	}
	if len(m.recent) == listsCap {
		m.recent = m.recent[:listsCap-1]
	}
	m.recent = slices.Insert(m.recent, 0, listEntry{enc: bytes.Clone(b), lineup: l})
	return l, nil
}

func (m *Lists) lookupLocked(b []byte) *Lineup {
	for _, e := range m.recent {
		if bytes.Equal(e.enc, b) {
			return e.lineup
		}
	}
	return nil
}
