package lru

import "testing"

func TestGetAdd(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Get("a") // a is now most recently used
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
}

func TestAddRefreshesExisting(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 9) // refresh value + recency, no growth
	c.Add("c", 3) // evicts b
	if v, _ := c.Get("a"); v != 9 {
		t.Fatalf("a = %d, want 9", v)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCapacityFloor(t *testing.T) {
	c := New[int, int](0)
	if c.cap != 1 {
		t.Fatalf("cap = %d, want 1", c.cap)
	}
	c.Add(1, 1)
	c.Add(2, 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestNeverExceedsCap(t *testing.T) {
	c := New[int, int](8)
	for i := 0; i < 1000; i++ {
		c.Add(i, i)
		if c.Len() > 8 {
			t.Fatalf("Len = %d exceeds cap after %d adds", c.Len(), i+1)
		}
	}
}

// Capacity is an eviction bound, not a reservation: an unused cache is
// its header alone (no map, no list node), reads on it work, and the
// bound still holds once it fills.
func TestNewReservesNothing(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { New[[32]byte, *int](1024) }); a > 1 {
		t.Errorf("New(1024) allocates %v times, want 1 (the header)", a)
	}
	c := New[int, int](3)
	if _, ok := c.Get(1); ok || c.Len() != 0 {
		t.Fatal("an unused cache must read as empty")
	}
	for i := 0; i < 10; i++ {
		c.Add(i, i)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d after 10 adds at capacity 3", c.Len())
	}
}
