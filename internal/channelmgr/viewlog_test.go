package channelmgr

import (
	"testing"
	"time"

	"p2pdrm/internal/geo"
)

var vt0 = time.Date(2008, 6, 23, 18, 0, 0, 0, time.UTC)

func TestViewLogLatestWins(t *testing.T) {
	l := NewViewLog(0)
	a := geo.Addr(1, 1, 1)
	b := geo.Addr(1, 1, 2)
	l.add(7, "chA", a, vt0)
	l.add(7, "chA", b, vt0.Add(time.Minute))
	e, ok := l.last(7, "chA")
	if !ok || e.NetAddr != b {
		t.Fatalf("latest = %+v %v, want addr %s", e, ok, b)
	}
}

func TestViewLogKeysAreIndependent(t *testing.T) {
	l := NewViewLog(0)
	l.add(7, "chA", geo.Addr(1, 1, 1), vt0)
	l.add(7, "chB", geo.Addr(1, 1, 2), vt0)
	l.add(8, "chA", geo.Addr(1, 1, 3), vt0)
	if e, _ := l.last(7, "chA"); e.NetAddr != geo.Addr(1, 1, 1) {
		t.Fatalf("(7, chA) = %+v", e)
	}
	if e, _ := l.last(8, "chA"); e.NetAddr != geo.Addr(1, 1, 3) {
		t.Fatalf("(8, chA) = %+v", e)
	}
	if _, ok := l.last(9, "chA"); ok {
		t.Fatal("unknown key found")
	}
}

func TestViewLogHistoryBounded(t *testing.T) {
	l := NewViewLog(3)
	for i := 0; i < 5; i++ {
		l.add(uint64(i), "ch", geo.Addr(1, 1, i), vt0.Add(time.Duration(i)*time.Second))
	}
	h := l.history
	if len(h) != 3 {
		t.Fatalf("history len = %d, want 3", len(h))
	}
	// Oldest two evicted; the newest retained.
	if h[0].UserIN != 2 || h[2].UserIN != 4 {
		t.Fatalf("history = %+v", h)
	}
	if l.size() != 3 {
		t.Fatalf("Len = %d", l.size())
	}
}

func TestDirectorySampleExcludesSelfAndExpired(t *testing.T) {
	d := NewDirectory(1)
	d.RegisterPermanent("ch", "root")
	d.register("ch", "alive", vt0.Add(time.Hour))
	d.register("ch", "dead", vt0.Add(-time.Hour))
	d.register("ch", "me", vt0.Add(time.Hour))
	got := d.sample("ch", 10, "me", vt0)
	if len(got) != 2 {
		t.Fatalf("sample = %v, want root+alive", got)
	}
	if got[0] != "root" {
		t.Fatalf("root not first: %v", got)
	}
	for _, p := range got {
		if p == "me" || p == "dead" {
			t.Fatalf("sample %v contains self or expired", got)
		}
	}
}

func TestDirectorySampleBounded(t *testing.T) {
	d := NewDirectory(1)
	for i := 0; i < 20; i++ {
		d.register("ch", geo.Addr(1, 1, i), vt0.Add(time.Hour))
	}
	if got := d.sample("ch", 5, "", vt0); len(got) != 5 {
		t.Fatalf("sample size = %d, want 5", len(got))
	}
}

func TestDirectoryRefreshAndRemove(t *testing.T) {
	d := NewDirectory(1)
	d.register("ch", "p", vt0.Add(time.Minute))
	d.register("ch", "p", vt0.Add(time.Hour)) // refresh
	if d.count("ch", vt0.Add(30*time.Minute)) != 1 {
		t.Fatal("refresh did not extend expiry")
	}
	d.remove("ch", "p")
	if d.count("ch", vt0) != 0 {
		t.Fatal("Remove did not drop the peer")
	}
}

func TestDirectoryPermanentNotDemoted(t *testing.T) {
	d := NewDirectory(1)
	d.RegisterPermanent("ch", "root")
	d.register("ch", "root", vt0.Add(-time.Hour)) // would expire it
	if d.count("ch", vt0) != 1 {
		t.Fatal("permanent root was demoted by a timed Register")
	}
}

func TestDirectoryUnknownChannel(t *testing.T) {
	d := NewDirectory(1)
	if got := d.sample("ghost", 5, "", vt0); got != nil {
		t.Fatalf("sample of unknown channel = %v", got)
	}
	if d.count("ghost", vt0) != 0 {
		t.Fatal("count of unknown channel nonzero")
	}
}
