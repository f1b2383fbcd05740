package simnet

import (
	"encoding/binary"
	"testing"
	"time"

	"p2pdrm/internal/sim"
)

// TestSendAllocBudget: a one-way send takes its envelope from the
// Network's freelist and the delivery returns it, so at steady state Send
// plus delivery allocates nothing in the transport (events and the
// handler's goroutine come from the scheduler's own freelists) — in a
// race build too, where a sync.Pool would drop envelopes at random.
func TestSendAllocBudget(t *testing.T) {
	s := sim.New(t0, 1)
	net := New(s, WithLatency(fixedLatency(time.Millisecond)))
	dst := net.NewNode("dst")
	got := 0
	dst.Handle("push", func(Addr, []byte) ([]byte, error) { got++; return nil, nil })
	src := net.NewNode("src")
	payload := []byte("frame")
	send := func() {
		src.Send("dst", "push", payload)
		s.RunUntil(s.Now().Add(2 * time.Millisecond))
	}
	for i := 0; i < 64; i++ { // warm the freelists
		send()
	}
	// Count a whole batch in one run: AllocsPerRun truncates its per-run
	// average, which would hide an envelope lost every few sends.
	const batch = 500
	sendBatch := func() {
		for i := 0; i < batch; i++ {
			send()
		}
	}
	if allocs := testing.AllocsPerRun(1, sendBatch); allocs != 0 {
		t.Fatalf("%d steady-state sends allocated %.0f objects, want 0", batch, allocs)
	}
	if want := 64 + 2*batch; got != want { // AllocsPerRun runs one warm-up batch
		t.Fatalf("delivered %d of %d", got, want)
	}
}

// sendPoolPayload is message i's body: its index and a pattern derived
// from it, so a handler can tell a payload that is intact and its own
// from one an envelope mix-up swapped in.
func sendPoolPayload(i int) []byte {
	p := make([]byte, 8+24)
	binary.BigEndian.PutUint64(p, uint64(i))
	for k := 8; k < len(p); k++ {
		p[k] = byte(i*7 + k)
	}
	return p
}

func sendPoolIndex(p []byte, n int) (int, bool) {
	if len(p) != 8+24 {
		return 0, false
	}
	i := int(binary.BigEndian.Uint64(p))
	if i < 0 || i >= n {
		return 0, false
	}
	for k := 8; k < len(p); k++ {
		if p[k] != byte(i*7+k) {
			return 0, false
		}
	}
	return i, true
}

// TestSendPoolExactlyOnceChaos drives 10 000 one-way sends through
// recycled envelopes across a partition that opens and heals and a node
// that goes down and restarts, from a simulated goroutine and from event
// callbacks, into a capacity-limited node whose handlers park with their
// envelopes in hand. Every message must reach exactly the handler it was
// addressed to, from its sender, with its own intact payload — or be
// dropped — exactly as the fault windows dictate. `make race` and
// `make chaos` run it under the race detector.
func TestSendPoolExactlyOnceChaos(t *testing.T) {
	const n = 10000
	s := sim.New(t0, 3)
	net := New(s, WithLatency(fixedLatency(time.Millisecond)))
	srcs := []*Node{net.NewNode("src0"), net.NewNode("src1")}
	dsts := []*Node{net.NewNode("dst0"), net.NewNode("dst1")}
	// dst0 queues: two workers, 300µs each, so parked handlers hold
	// envelopes while later sends take new ones from the freelist.
	dsts[0].SetCapacity(2, func() time.Duration { return 300 * time.Microsecond })
	handled := make([]int, n)
	var bad []string
	for d, dst := range dsts {
		d := d
		dst.Handle("push", func(from Addr, p []byte) ([]byte, error) {
			i, ok := sendPoolIndex(p, n)
			switch {
			case !ok:
				bad = append(bad, "corrupt payload")
			case (i/2)%2 != d:
				bad = append(bad, "message delivered to the wrong node")
			case from != srcs[i%2].Addr():
				bad = append(bad, "message attributed to the wrong sender")
			default:
				handled[i]++
			}
			return nil, nil
		})
	}
	partFrom, partTo := t0.Add(200*time.Millisecond), t0.Add(400*time.Millisecond)
	downFrom, downTo := t0.Add(600*time.Millisecond), t0.Add(700*time.Millisecond)
	net.Inject(
		Fault{Kind: Partition, At: partFrom, For: partTo.Sub(partFrom), A: []Addr{"src0"}, B: []Addr{"dst0"}},
		Fault{Kind: Down, At: downFrom, For: downTo.Sub(downFrom), A: []Addr{"dst1"}},
	)

	// Message i leaves src(i%2) for dst((i/2)%2) at i×100µs + 50µs, off
	// every fault boundary, so its fate is fixed by the windows.
	sendAt := func(i int) time.Time { return t0.Add(time.Duration(i)*100*time.Microsecond + 50*time.Microsecond) }
	send := func(i int) { srcs[i%2].Send(dsts[(i/2)%2].Addr(), "push", sendPoolPayload(i)) }
	s.Go(func() { // src0 sends from a simulated goroutine
		for i := 0; i < n; i += 2 {
			s.Sleep(sendAt(i).Sub(s.Now()))
			send(i)
		}
	})
	for i := 1; i < n; i += 2 { // src1 sends from event callbacks
		i := i
		s.At(sendAt(i), func() { send(i) })
	}
	s.Run()

	if len(bad) > 0 {
		t.Fatalf("%d bad deliveries, first: %s", len(bad), bad[0])
	}
	cut, down := 0, 0
	for i := 0; i < n; i++ {
		want := 1
		at, arrive := sendAt(i), sendAt(i).Add(time.Millisecond)
		if i%2 == 0 && (i/2)%2 == 0 && !at.Before(partFrom) && at.Before(partTo) {
			want, cut = 0, cut+1
		}
		if (i/2)%2 == 1 && !arrive.Before(downFrom) && arrive.Before(downTo) {
			want, down = 0, down+1
		}
		if handled[i] != want {
			t.Fatalf("message %d handled %d times, want %d", i, handled[i], want)
		}
	}
	st := net.Stats()
	if cut == 0 || down == 0 {
		t.Fatalf("fault windows dropped nothing (cut %d, down %d): the test lost its faults", cut, down)
	}
	if st.Sent != n || st.DroppedLinkCut != int64(cut) || st.Dropped != int64(cut) || st.Delivered != int64(n-cut) {
		t.Fatalf("stats %+v, want sent %d, %d cut, %d delivered (%d of them to a down node)", st, n, cut, n-cut, down)
	}
}
