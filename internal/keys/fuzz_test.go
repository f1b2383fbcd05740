package keys

import (
	"bytes"
	"math/rand"
	"testing"

	"p2pdrm/internal/cryptoutil"
)

// keyFor derives a deterministic content key for a serial so fuzz runs
// are reproducible without threading an RNG through the script.
func keyFor(s Serial, salt byte) ContentKey {
	var k cryptoutil.SymKey
	for i := range k {
		k[i] = byte(s) ^ salt ^ byte(i*7)
	}
	return ContentKey{Serial: s, Key: k}
}

// FuzzRing drives Add/Get/Sealer with an arbitrary serial script —
// out-of-order deliveries, duplicates, and uint8 wraparound included —
// and checks the ring's forward-secrecy invariants after every step:
// never more than window iterations held, never a serial at or beyond
// the window behind the newest, and Add refusing exactly the duplicates
// and the too-old.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, uint8(4))
	f.Add([]byte{250, 251, 252, 253, 254, 255, 0, 1, 2}, uint8(4)) // wraparound
	f.Add([]byte{5, 3, 9, 1, 200, 7, 7, 3}, uint8(3))              // out of order + dups
	f.Add([]byte{0, 128, 0, 129, 1}, uint8(1))                     // max-distance flips
	f.Fuzz(func(t *testing.T, script []byte, window uint8) {
		w := int(window%8) + 1
		r := NewRing(w)
		for i, b := range script {
			s := Serial(b)
			_, hadBefore := r.Get(s)
			latestBefore, hasBefore := r.Latest()
			added := r.Add(keyFor(s, window))

			if hadBefore && added {
				t.Fatalf("step %d: duplicate serial %d re-added", i, s)
			}
			if hasBefore {
				if d := latestBefore.Serial.distance(s); d <= -w && added {
					t.Fatalf("step %d: serial %d at distance %d accepted past window %d", i, s, d, w)
				}
			} else if !added {
				t.Fatalf("step %d: first key (serial %d) refused", i, s)
			}

			if n := r.Len(); n > w {
				t.Fatalf("step %d: ring holds %d > window %d iterations", i, n, w)
			}
			latest, ok := r.Latest()
			if !ok {
				t.Fatalf("step %d: ring empty after an Add", i)
			}
			for _, ck := range r.Snapshot() {
				if d := latest.Serial.distance(ck.Serial); d <= -w {
					t.Fatalf("step %d: evicted-range serial %d still held (latest %d, window %d)",
						i, ck.Serial, latest.Serial, w)
				}
				got, ok := r.Get(ck.Serial)
				if !ok || got != keyFor(ck.Serial, window).Key {
					t.Fatalf("step %d: held serial %d lookup mismatch", i, ck.Serial)
				}
			}
			if _, ok := r.Sealer(latest.Serial); !ok {
				t.Fatalf("step %d: newest serial %d not retrievable", i, latest.Serial)
			}
		}
	})
}

// TestOpenPacketNeverSucceedsForEvictedSerials is the forward-secrecy
// property behind the time-shift figure: walk hundreds of rotations
// (wrapping the serial space) through a receiver ring, sealing one
// packet per iteration, and at every step each retained packet must
// open iff its serial is still inside the ring window — an evicted
// serial must never decrypt, no matter how the lookup is phrased.
func TestOpenPacketNeverSucceedsForEvictedSerials(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const window = 4
	r := NewRing(window)
	aad := []byte("live/ppv")

	type sealed struct {
		serial Serial
		packet []byte
		clear  []byte
	}
	var history []sealed

	for i := 0; i < 600; i++ {
		ck := keyFor(Serial(i%256), 0)
		if !r.Add(ck) {
			t.Fatalf("rotation %d: in-order key refused", i)
		}
		clear := []byte{byte(i), byte(i >> 8), 0xAB}
		pkt, err := NewPacketSealer(ck).Seal(rng, clear, aad)
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, sealed{serial: ck.Serial, packet: pkt, clear: clear})
		if len(history) > 2*window {
			history = history[1:]
		}

		for j, h := range history {
			depth := len(history) - 1 - j
			pt, err := OpenPacket(r, h.packet, aad)
			if depth < window {
				if err != nil {
					t.Fatalf("rotation %d: packet at depth %d failed: %v", i, depth, err)
				}
				if !bytes.Equal(pt, h.clear) {
					t.Fatalf("rotation %d: depth-%d plaintext mismatch", i, depth)
				}
			} else if err == nil {
				t.Fatalf("rotation %d: packet at depth %d OPENED — serial %d must be evicted (window %d)",
					i, depth, h.serial, window)
			}
		}
	}

	st := r.Stats()
	if st.MissesEvicted == 0 {
		t.Fatal("no evicted-serial misses recorded — the property was never exercised")
	}
	if st.DeepestMiss < window {
		t.Fatalf("deepest miss %d < window %d", st.DeepestMiss, window)
	}

	// Cross-viewer aggregation: counts sum, the deepest miss is a maximum.
	sum := RingStats{Lookups: 1, Misses: 1, MissesInWindow: 1, DeepestMiss: st.DeepestMiss + 3}
	sum.Add(st)
	want := RingStats{
		Lookups: st.Lookups + 1, Misses: st.Misses + 1, MissesEvicted: st.MissesEvicted,
		MissesInWindow: st.MissesInWindow + 1, DeepestMiss: st.DeepestMiss + 3,
	}
	if sum != want {
		t.Fatalf("RingStats.Add: got %+v, want %+v", sum, want)
	}
}
