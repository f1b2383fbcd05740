package client

import (
	"testing"
	"time"

	"p2pdrm/internal/attr"
)

func TestSplitSubstreams(t *testing.T) {
	cases := []struct {
		n, k int
		want [][]uint8
	}{
		{4, 2, [][]uint8{{0, 2}, {1, 3}}},
		{4, 1, [][]uint8{{0, 1, 2, 3}}},
		{4, 4, [][]uint8{{0}, {1}, {2}, {3}}},
		{3, 5, [][]uint8{{0}, {1}, {2}}}, // k capped at n
		{4, 0, [][]uint8{{0, 1, 2, 3}}},  // k floored at 1
	}
	for _, c := range cases {
		got := splitSubstreams(c.n, c.k)
		if len(got) != len(c.want) {
			t.Fatalf("split(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
		for i := range got {
			if len(got[i]) != len(c.want[i]) {
				t.Fatalf("split(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
			}
			for j := range got[i] {
				if got[i][j] != c.want[i][j] {
					t.Fatalf("split(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
				}
			}
		}
	}
}

func TestSplitSubstreamsCoversAll(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for k := 1; k <= 8; k++ {
			seen := map[uint8]int{}
			for _, hand := range splitSubstreams(n, k) {
				for _, s := range hand {
					seen[s]++
				}
			}
			for s := 0; s < n; s++ {
				if seen[uint8(s)] != 1 {
					t.Fatalf("split(%d,%d): substream %d dealt %d times", n, k, s, seen[uint8(s)])
				}
			}
		}
	}
}

func TestStaleNames(t *testing.T) {
	early := time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)
	late := early.Add(time.Hour)
	prev := attr.List{
		{Name: attr.NameRegion, Value: "100", UTime: early},
		{Name: attr.NameSubscription, Value: "101", UTime: early},
	}
	cur := attr.List{
		{Name: attr.NameRegion, Value: "100", UTime: late}, // newer → stale
		{Name: attr.NameSubscription, Value: "101", UTime: early},
		{Name: attr.NameAS, Value: "7", UTime: late}, // absent before → not reported
	}
	got := staleNames(prev, cur)
	if len(got) != 1 || got[0] != attr.NameRegion {
		t.Fatalf("staleNames = %v, want [Region]", got)
	}
	if staleNames(nil, cur) != nil {
		t.Fatal("first login must not report stale names")
	}
	if got := staleNames(prev, prev); len(got) != 0 {
		t.Fatalf("identical lists reported stale: %v", got)
	}
}

func TestSortStrings(t *testing.T) {
	s := []string{"c", "a", "b"}
	sortStrings(s)
	if s[0] != "a" || s[1] != "b" || s[2] != "c" {
		t.Fatalf("sorted = %v", s)
	}
	sortStrings(nil) // must not panic
}

func TestConfigFillDefaults(t *testing.T) {
	c := Config{}
	c.fill()
	if c.Substreams != 4 || c.Parents != 2 || c.RPCTimeout != 10*time.Second {
		t.Fatalf("defaults = %+v", c)
	}
	c2 := Config{Substreams: 2, Parents: 8}
	c2.fill()
	if c2.Parents != 2 {
		t.Fatalf("Parents not capped at Substreams: %d", c2.Parents)
	}
}
