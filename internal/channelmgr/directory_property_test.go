package channelmgr

import (
	"testing"
	"testing/quick"
	"time"

	"p2pdrm/internal/geo"
	"p2pdrm/internal/simnet"
)

// Property: Sample never returns the excluded self, never returns an
// expired peer, never exceeds the requested size, and always includes
// live permanent roots first when they fit.
func TestDirectorySampleInvariants(t *testing.T) {
	base := time.Date(2008, 6, 23, 18, 0, 0, 0, time.UTC)
	f := func(hosts []uint8, expiredMask []bool, n uint8, selfIdx uint8) bool {
		d := NewDirectory(1)
		d.RegisterPermanent("ch", "root")
		live := map[simnet.Addr]bool{"root": true}
		var self simnet.Addr
		for i, h := range hosts {
			addr := geo.Addr(1, 1, int(h))
			expired := i < len(expiredMask) && expiredMask[i]
			exp := base.Add(time.Hour)
			if expired {
				exp = base.Add(-time.Hour)
			}
			d.register("ch", addr, exp)
			// Later registrations of the same addr overwrite earlier
			// ones; track the final state.
			live[addr] = !expired
			if int(selfIdx) == i {
				self = addr
			}
		}
		want := int(n%16) + 1
		got := d.sample("ch", want, self, base)
		if len(got) > want {
			return false
		}
		seen := map[string]bool{}
		for _, p := range got {
			if simnet.Addr(p) == self {
				return false
			}
			if !live[simnet.Addr(p)] {
				return false
			}
			if seen[p] {
				return false
			}
			seen[p] = true
		}
		// The permanent root is always eligible; it must lead the sample
		// unless it is self.
		if self != "root" && len(got) > 0 && got[0] != "root" {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the view log's Latest always reflects the append with the
// greatest insertion order for its key.
func TestViewLogLatestProperty(t *testing.T) {
	base := time.Date(2008, 6, 23, 18, 0, 0, 0, time.UTC)
	f := func(users []uint8, hosts []uint8) bool {
		n := len(users)
		if len(hosts) < n {
			n = len(hosts)
		}
		l := NewViewLog(0)
		lastByKey := map[uint64]simnet.Addr{}
		for i := 0; i < n; i++ {
			user := uint64(users[i] % 4) // few users → frequent overwrites
			addr := geo.Addr(1, 1, int(hosts[i]))
			l.add(user, "ch", addr, base.Add(time.Duration(i)*time.Second))
			lastByKey[user] = addr
		}
		for user, want := range lastByKey {
			e, ok := l.last(user, "ch")
			if !ok || e.NetAddr != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
