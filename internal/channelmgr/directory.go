package channelmgr

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"p2pdrm/internal/simnet"
)

// Directory tracks which peers currently carry each channel so the
// Channel Manager can return "a list of peers from whom the client can
// obtain a channel signal" with the Channel Ticket (§III, step 4).
//
// Channel Server roots register permanently; clients are registered when
// a ticket is issued and expire with it (refreshed on renewal), so a
// departed client falls out of the list within one ticket lifetime.
//
// Ordering invariant: each channel's roots and members are kept sorted
// by address as they register, refresh and expire. The seeded shuffle
// in sample is only deterministic if its input order is, and a flash
// crowd samples a 2000-member channel once per switch — so the order is
// maintained at the (rarer, O(log n) search + one memmove) writes
// instead of being rebuilt and sorted at every read.
type Directory struct {
	mu        sync.Mutex
	rng       *rand.Rand
	byChannel map[string]*channelPeers
	scratch   []string // sample's shuffle buffer, reused under mu
}

// channelPeers is one channel's membership, both slices sorted by addr.
type channelPeers struct {
	roots   []string // permanent (Channel Server roots)
	members []member // expiring (clients)
}

type member struct {
	addr   string
	expiry time.Time
}

// NewDirectory creates a Directory with a seeded sampler.
func NewDirectory(seed int64) *Directory {
	return &Directory{
		rng:       rand.New(rand.NewSource(seed)),
		byChannel: make(map[string]*channelPeers),
	}
}

// RegisterPermanent adds an always-listed peer (a Channel Server root).
func (d *Directory) RegisterPermanent(channelID string, addr simnet.Addr) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.peers(channelID).setPermanent(string(addr))
}

// register adds or refreshes a peer with an expiry.
func (d *Directory) register(channelID string, addr simnet.Addr, expiry time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.peers(channelID)
	a := string(addr)
	if expiry.IsZero() { // zero expiry means permanent
		c.setPermanent(a)
		return
	}
	if _, ok := slices.BinarySearch(c.roots, a); ok {
		return // never demote a permanent root
	}
	if i, ok := c.findMember(a); ok {
		c.members[i].expiry = expiry
	} else {
		c.members = slices.Insert(c.members, i, member{a, expiry})
	}
}

// remove drops a peer from a channel.
func (d *Directory) remove(channelID string, addr simnet.Addr) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.byChannel[channelID]
	if c == nil {
		return
	}
	a := string(addr)
	if i, ok := slices.BinarySearch(c.roots, a); ok {
		c.roots = slices.Delete(c.roots, i, i+1)
	}
	c.removeMember(a)
}

// sample returns up to n live peers for the channel, excluding self,
// with permanent roots always included first (in address order) and the
// rest drawn by a seeded shuffle of the live members in address order.
// The whole membership is shuffled — the draw sequence, and so every
// later sample, does not depend on n — but in the reused scratch
// buffer; only the n-element result is allocated. Expired members other
// than self are dropped on the way.
func (d *Directory) sample(channelID string, n int, self simnet.Addr, now time.Time) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.byChannel[channelID]
	if c == nil {
		return nil
	}
	live, kept := d.scratch[:0], c.members[:0]
	for _, m := range c.members {
		switch {
		case m.addr == string(self):
		case now.After(m.expiry):
			continue
		default:
			live = append(live, m.addr)
		}
		kept = append(kept, m)
	}
	clear(c.members[len(kept):])
	c.members, d.scratch = kept, live
	d.rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })

	total := len(c.roots) + len(live)
	if _, ok := slices.BinarySearch(c.roots, string(self)); ok {
		total--
	}
	if total == 0 {
		return nil
	}
	out := make([]string, 0, min(n, total))
	for _, r := range c.roots {
		if r != string(self) && len(out) < n {
			out = append(out, r)
		}
	}
	return append(out, live[:min(n-len(out), len(live))]...)
}

// count returns the number of live peers on a channel.
func (d *Directory) count(channelID string, now time.Time) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.byChannel[channelID]
	if c == nil {
		return 0
	}
	cnt := len(c.roots)
	for _, m := range c.members {
		if !now.After(m.expiry) {
			cnt++
		}
	}
	return cnt
}

func (d *Directory) peers(channelID string) *channelPeers {
	c := d.byChannel[channelID]
	if c == nil {
		c = &channelPeers{}
		d.byChannel[channelID] = c
	}
	return c
}

// findMember returns addr's position in the sorted members (or where
// it would be inserted) and whether it is present.
func (c *channelPeers) findMember(addr string) (int, bool) {
	return slices.BinarySearchFunc(c.members, addr, func(m member, a string) int { return strings.Compare(m.addr, a) })
}

func (c *channelPeers) removeMember(addr string) {
	if i, ok := c.findMember(addr); ok {
		c.members = slices.Delete(c.members, i, i+1)
	}
}

// setPermanent lists addr as a root, promoting it if it was a member.
func (c *channelPeers) setPermanent(addr string) {
	c.removeMember(addr)
	if i, ok := slices.BinarySearch(c.roots, addr); !ok {
		c.roots = slices.Insert(c.roots, i, addr)
	}
}
