package policy

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// version encodes a lineup of channel A plus n extra channels, so each n
// is a distinct encoded version.
func version(n int) []byte {
	chs := []*Channel{channelA()}
	for i := 0; i < n; i++ {
		chs = append(chs, &Channel{ID: fmt.Sprintf("ch%d", i), Name: "extra"})
	}
	return AppendChannels(nil, chs)
}

func TestListsShareOneDecodePerVersion(t *testing.T) {
	m := NewLists()
	v0 := version(0)
	a, err := m.Decode(v0)
	if err != nil {
		t.Fatal(err)
	}
	// The same bytes in another buffer: the same Lineup.
	b, err := m.Decode(bytes.Clone(v0))
	if err != nil || b != a {
		t.Fatalf("second decode of the same bytes = %p, %v; want the first's %p", b, err, a)
	}
	if len(a.Channels) != 1 || a.ByID["chA"] != a.Channels[0] {
		t.Fatalf("lineup = %+v", a)
	}
	want, _, _ := decodeChannels(v0)
	if !reflect.DeepEqual(a.Channels, want) {
		t.Fatal("memoized lineup differs from a fresh decode")
	}
	// The memo keeps its own copy of the key: overwriting the caller's
	// buffer neither changes the lineup nor stops the bytes from hitting.
	for i := range v0 {
		v0[i] = 0
	}
	if c, err := m.Decode(version(0)); err != nil || c != a {
		t.Fatalf("decode after the caller's buffer changed = %p, %v; want %p", c, err, a)
	}
	if c, err := m.Decode(version(1)); err != nil || c == a || len(c.Channels) != 2 {
		t.Fatalf("another version = %+v, %v; want its own lineup", c, err)
	}
}

func TestListsKeepNewestVersions(t *testing.T) {
	m := NewLists()
	first := make([]*Lineup, listsCap+1)
	for i := range first {
		first[i], _ = m.Decode(version(i))
	}
	if len(m.recent) != listsCap {
		t.Fatalf("memo holds %d versions, want %d", len(m.recent), listsCap)
	}
	for i := 1; i <= listsCap; i++ {
		if l, _ := m.Decode(version(i)); l != first[i] {
			t.Fatalf("version %d decoded afresh while still among the newest %d", i, listsCap)
		}
	}
	if l, _ := m.Decode(version(0)); l == first[0] {
		t.Fatal("evicted version 0 still served from the memo")
	}
}

func TestListsDecodeRejects(t *testing.T) {
	m := NewLists()
	enc := version(1)
	if _, err := m.Decode(append(bytes.Clone(enc), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := m.Decode(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated list accepted")
	}
	if len(m.recent) != 0 {
		t.Fatalf("failed decodes were remembered: %d entries", len(m.recent))
	}
}

func TestNilListsDecodesAfresh(t *testing.T) {
	var m *Lists
	a, err := m.Decode(version(2))
	if err != nil || len(a.Channels) != 3 {
		t.Fatalf("nil Lists decode = %+v, %v", a, err)
	}
	if b, _ := m.Decode(version(2)); b == a {
		t.Fatal("nil Lists shared a decode")
	}
}

// TestListsConcurrent: goroutines decode overlapping versions through one
// memo. Every goroutine gets the one Lineup of each version, and the
// decoded channels stay equal to a fresh decode.
func TestListsConcurrent(t *testing.T) {
	m := NewLists()
	encs := make([][]byte, listsCap)
	for i := range encs {
		encs[i] = version(i)
	}
	const workers = 8
	got := make([][]*Lineup, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = make([]*Lineup, len(encs))
			for round := 0; round < 50; round++ {
				for i := range encs {
					j := (i + w) % len(encs)
					l, err := m.Decode(encs[j])
					if err != nil {
						t.Error(err)
						return
					}
					l.ByID["chA"].EvaluateUser(userR100, now)
					got[w][j] = l
				}
			}
		}()
	}
	wg.Wait()
	for j, enc := range encs {
		want, _, _ := decodeChannels(enc)
		for w := range got {
			if got[w][j] != got[0][j] {
				t.Fatalf("version %d: workers hold different lineups", j)
			}
		}
		if !reflect.DeepEqual(got[0][j].Channels, want) {
			t.Fatalf("version %d changed while shared", j)
		}
	}
}
