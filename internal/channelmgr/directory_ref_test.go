package channelmgr

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"p2pdrm/internal/simnet"
)

// refDirectory is the map-backed Directory that Sample replaced: it
// rebuilds, sorts and shuffles the whole membership on every call. Kept
// test-only as the reference TestDirectoryMatchesReference holds the
// ordered-slice implementation to — same lists, same RNG draws.
type refDirectory struct {
	mu        sync.Mutex
	rng       *rand.Rand
	byChannel map[string]map[simnet.Addr]time.Time // expiry; zero = permanent
}

func newRefDirectory(seed int64) *refDirectory {
	return &refDirectory{
		rng:       rand.New(rand.NewSource(seed)),
		byChannel: make(map[string]map[simnet.Addr]time.Time),
	}
}

// RegisterPermanent adds an always-listed peer (a Channel Server root).
func (d *refDirectory) RegisterPermanent(channelID string, addr simnet.Addr) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.peers(channelID)[addr] = time.Time{}
}

// Register adds or refreshes a peer with an expiry.
func (d *refDirectory) Register(channelID string, addr simnet.Addr, expiry time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := d.peers(channelID)
	if cur, ok := m[addr]; ok && cur.IsZero() {
		return // never demote a permanent root
	}
	m[addr] = expiry
}

// Remove drops a peer from a channel.
func (d *refDirectory) Remove(channelID string, addr simnet.Addr) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.byChannel[channelID]; ok {
		delete(m, addr)
	}
}

// Sample returns up to n live peers for the channel, excluding self,
// with permanent roots always included first.
func (d *refDirectory) Sample(channelID string, n int, self simnet.Addr, now time.Time) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.byChannel[channelID]
	if !ok {
		return nil
	}
	var roots, others []string
	for addr, exp := range m {
		if addr == self {
			continue
		}
		if !exp.IsZero() && now.After(exp) {
			delete(m, addr)
			continue
		}
		if exp.IsZero() {
			roots = append(roots, string(addr))
		} else {
			others = append(others, string(addr))
		}
	}
	d.sortStrings(roots)
	// Sort before shuffling: the seeded shuffle is only deterministic if
	// its input order is (the map above iterates in random order).
	sort.Strings(others)
	d.rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	out := append(roots, others...)
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Count returns the number of live peers on a channel.
func (d *refDirectory) Count(channelID string, now time.Time) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := d.byChannel[channelID]
	cnt := 0
	for _, exp := range m {
		if exp.IsZero() || !now.After(exp) {
			cnt++
		}
	}
	return cnt
}

func (d *refDirectory) peers(channelID string) map[simnet.Addr]time.Time {
	m, ok := d.byChannel[channelID]
	if !ok {
		m = make(map[simnet.Addr]time.Time)
		d.byChannel[channelID] = m
	}
	return m
}

// sortStrings is a tiny insertion sort to keep root ordering
// deterministic without importing sort for two elements.
func (d *refDirectory) sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
