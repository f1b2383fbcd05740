// Package keys implements the evolving content-key mechanism of §IV-E:
// a channel's signal is encrypted under a symmetric key that rotates at a
// fixed interval (e.g. one minute) to provide forward secrecy. Each
// iteration carries an 8-bit serial number; the Channel Server prepends
// the serial to every content packet so receivers know which key decrypts
// it, and peers discard duplicate keys received from multiple parents by
// serial.
package keys

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"p2pdrm/internal/cryptoutil"
)

// Serial is the 8-bit content-key serial number. It wraps modulo 256;
// comparisons use a half-window rule like TCP sequence numbers.
type Serial uint8

// next returns the following serial (wrapping).
func (s Serial) next() Serial { return s + 1 }

// distance returns the signed shortest distance from s to o in modulo-256
// space: positive when o is ahead of s.
func (s Serial) distance(o Serial) int {
	d := int(int8(o - s))
	return d
}

// newerThan reports whether s is strictly ahead of o under the
// half-window rule.
func (s Serial) newerThan(o Serial) bool { return o.distance(s) > 0 }

// ContentKey is one iteration of the evolving key.
type ContentKey struct {
	Serial Serial
	Key    cryptoutil.SymKey
}

// ContentKeyLen is the Encode output size.
const ContentKeyLen = 1 + cryptoutil.SymKeySize

// Encode serializes to ContentKeyLen bytes.
func (k ContentKey) Encode() []byte {
	return k.AppendEncode(make([]byte, 0, ContentKeyLen))
}

// AppendEncode appends the serialized key to dst (stack-friendly: with
// a fixed-size array backing dst the encode performs no allocation).
func (k ContentKey) AppendEncode(dst []byte) []byte {
	dst = append(dst, byte(k.Serial))
	return append(dst, k.Key[:]...)
}

// DecodeContentKey parses an Encode output.
func DecodeContentKey(b []byte) (ContentKey, error) {
	if len(b) != 1+cryptoutil.SymKeySize {
		return ContentKey{}, cryptoutil.ErrShortData
	}
	k := ContentKey{Serial: Serial(b[0])}
	copy(k.Key[:], b[1:])
	return k, nil
}

// Schedule generates the evolving key sequence at the Channel Server.
type Schedule struct {
	mu  sync.Mutex
	rng io.Reader
	cur ContentKey
}

// NewSchedule seeds a schedule with a fresh key at serial 0.
func NewSchedule(rng io.Reader) (*Schedule, error) {
	k, err := cryptoutil.NewSymKey(rng)
	if err != nil {
		return nil, fmt.Errorf("initial content key: %w", err)
	}
	return &Schedule{rng: rng, cur: ContentKey{Serial: 0, Key: k}}, nil
}

// Current returns the active key iteration.
func (s *Schedule) Current() ContentKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Rotate advances to a fresh key with the next serial and returns it.
func (s *Schedule) Rotate() (ContentKey, error) {
	k, err := cryptoutil.NewSymKey(s.rng)
	if err != nil {
		return ContentKey{}, fmt.Errorf("rotate content key: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur = ContentKey{Serial: s.cur.Serial.next(), Key: k}
	return s.cur, nil
}

// Ring holds the receiver's window of recent key iterations. Keys older
// than the window are evicted, enforcing forward secrecy at the client:
// a late joiner cannot decrypt packets from before its admission window.
//
// Each iteration is stored as a cryptoutil.SealKey: Add keeps the 16 key
// bytes, and the AES/GCM set-up is paid by the first packet opened under
// that iteration, once — a peer that receives no content under a key
// never builds its AEAD. A ring built with a deployment's Memo takes that
// SealKey from it, so every ring of the deployment holding the iteration,
// and the Channel Server sealing under it, share one AEAD.
type Ring struct {
	mu     sync.Mutex
	window int
	memo   *cryptoutil.Memo
	keys   map[Serial]*cryptoutil.SealKey
	latest Serial
	has    bool
	stats  RingStats
	// aad is OpenPacketAppend's serial||aad binding, rebuilt in place per
	// packet under mu: it escapes through cipher.AEAD, so a fresh slice
	// would cost a heap object per open.
	aad []byte
}

// RingStats counts lookup outcomes, in particular *misses by depth*: how
// far behind the newest held iteration a failed lookup reached. The
// time-shift scenarios read these to show key availability vs seek depth
// — misses at depth ≥ window are the forward-secrecy boundary working,
// misses inside the window are delivery gaps.
type RingStats struct {
	Lookups int64 // packet opens that looked up a key
	Misses  int64 // lookups with no key held
	// MissesEvicted are misses whose serial sits at or beyond the window
	// behind the newest held iteration — evicted (or never kept) by the
	// forward-secrecy rule, the expected outcome of a too-deep seek.
	MissesEvicted int64
	// MissesInWindow are misses within the window: the key exists
	// somewhere but has not reached this ring (delivery gap / early
	// packet).
	MissesInWindow int64
	// DeepestMiss is the largest behind-latest distance seen on a miss
	// (0 when no miss carried a depth — e.g. the ring was empty).
	DeepestMiss int
}

// Add folds another ring's counters into s (cross-viewer aggregation):
// counts sum, DeepestMiss takes the maximum.
func (s *RingStats) Add(o RingStats) {
	s.Lookups += o.Lookups
	s.Misses += o.Misses
	s.MissesEvicted += o.MissesEvicted
	s.MissesInWindow += o.MissesInWindow
	if o.DeepestMiss > s.DeepestMiss {
		s.DeepestMiss = o.DeepestMiss
	}
}

// Stats snapshots the ring's lookup counters.
func (r *Ring) Stats() RingStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// DefaultWindow covers in-flight rotation plus early-delivered next keys.
const DefaultWindow = 4

// NewRing creates a ring keeping up to window iterations (≤ 0 uses
// DefaultWindow), holding a SealKey of its own for each.
func NewRing(window int) *Ring { return NewSharedRing(window, nil) }

// NewSharedRing is NewRing taking each iteration's SealKey from m (see
// cryptoutil.Memo.Sealer); a nil m shares nothing.
func NewSharedRing(window int, m *cryptoutil.Memo) *Ring {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Ring{window: window, memo: m, keys: make(map[Serial]*cryptoutil.SealKey, window)}
}

// Add inserts a received key iteration. It returns false for duplicates
// and for keys older than the current window (both are discarded, as the
// paper prescribes for keys received via multiple parents).
func (r *Ring) Add(k ContentKey) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.has {
		if _, dup := r.keys[k.Serial]; dup {
			return false
		}
		if d := r.latest.distance(k.Serial); d <= -r.window {
			return false // too old
		}
	}
	r.keys[k.Serial] = r.memo.Sealer(k.Key)
	if !r.has || k.Serial.newerThan(r.latest) {
		r.latest = k.Serial
		r.has = true
	}
	// Evict iterations that fell out of the window.
	for s := range r.keys {
		if d := r.latest.distance(s); d <= -r.window {
			delete(r.keys, s)
		}
	}
	return true
}

func (r *Ring) sealerLocked(s Serial) (*cryptoutil.SealKey, bool) {
	sk, ok := r.keys[s]
	r.stats.Lookups++
	if !ok {
		r.stats.Misses++
		if r.has {
			depth := -r.latest.distance(s)
			if depth >= r.window {
				r.stats.MissesEvicted++
			} else {
				r.stats.MissesInWindow++
			}
			if depth > r.stats.DeepestMiss {
				r.stats.DeepestMiss = depth
			}
		}
	}
	return sk, ok
}

// Snapshot returns all held iterations (for handing the current key set to
// a newly admitted peer).
func (r *Ring) Snapshot() []ContentKey {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ContentKey, 0, len(r.keys))
	for s, k := range r.keys {
		out = append(out, ContentKey{Serial: s, Key: k.Key()})
	}
	// Oldest-to-newest, not map order: the snapshot is sealed per-key into
	// join responses, so its order must be deterministic for a fixed seed.
	sort.Slice(out, func(i, j int) bool {
		return r.latest.distance(out[i].Serial) < r.latest.distance(out[j].Serial)
	})
	return out
}

// Packet errors.
var (
	// ErrUnknownSerial means the receiver has no key for the packet's
	// serial (not yet delivered, or outside the forward-secrecy window).
	ErrUnknownSerial = errors.New("keys: no key for packet serial")
	// ErrHijack means GCM authentication failed: the packet was not
	// produced by the channel's key holder — rogue injected content.
	ErrHijack = errors.New("keys: content authentication failed (possible hijack)")
)

// PacketSealer seals packets under one key iteration with the AEAD built
// once, by the first packet sealed. The Channel Server holds one per
// produce-key and replaces it on rotation, so per-packet cost is pure GCM
// and a rotation with no content costs no cipher set-up.
type PacketSealer struct {
	serial Serial
	sealer *cryptoutil.SealKey
	aadBuf []byte // SealAppend scratch: serial||aad without a per-call alloc
}

// NewPacketSealer wraps the key iteration for sealing packets.
func NewPacketSealer(k ContentKey) *PacketSealer { return NewSharedPacketSealer(k, nil) }

// NewSharedPacketSealer is NewPacketSealer taking the iteration's SealKey
// from m, the one every ring built on m holds for it; a nil m shares
// nothing.
func NewSharedPacketSealer(k ContentKey, m *cryptoutil.Memo) *PacketSealer {
	return &PacketSealer{serial: k.Serial, sealer: m.Sealer(k.Key)}
}

// Seal encrypts one content packet, prepending the 8-bit serial (§IV-E)
// and binding aad (the channel ID) so packets cannot be replayed across
// channels.
func (ps *PacketSealer) Seal(rng io.Reader, payload, aad []byte) ([]byte, error) {
	full := packetAAD(ps.serial, aad)
	ct, err := ps.sealer.Seal(rng, payload, full)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 1+len(ct))
	out = append(out, byte(ps.serial))
	return append(out, ct...), nil
}

// SealedLen reports Seal's output size for an n-byte payload: the 8-bit
// serial prefix plus the AEAD nonce/ciphertext/tag. Use it to size a
// SealAppend destination exactly.
func (ps *PacketSealer) SealedLen(n int) int { return 1 + ps.sealer.SealedLen(n) }

// SealAppend seals one content packet and appends serial||nonce||ct||tag
// to dst, returning the extended slice — byte-identical to Seal's output
// but allocation-free when dst has SealedLen spare capacity, so the
// content fan-out can build each edge's full wire frame in one buffer.
// Unlike Seal it is not safe for concurrent use (it reuses an internal
// AAD scratch buffer); the Channel Server seals from a single simulated
// goroutine.
func (ps *PacketSealer) SealAppend(dst []byte, rng io.Reader, payload, aad []byte) ([]byte, error) {
	ps.aadBuf = append(ps.aadBuf[:0], byte(ps.serial))
	ps.aadBuf = append(ps.aadBuf, aad...)
	dst = append(dst, byte(ps.serial))
	return ps.sealer.SealAppend(dst, rng, payload, ps.aadBuf)
}

// OpenPacket decrypts a PacketSealer.Seal output using the receiver's
// ring. The per-serial AEAD is cached inside the ring, so repeated
// packets under one iteration skip the cipher setup.
func OpenPacket(r *Ring, packet, aad []byte) ([]byte, error) {
	return OpenPacketAppend(nil, r, packet, aad)
}

// OpenPacketAppend is OpenPacket appending the plaintext to dst. Given
// len(packet) spare capacity in dst it allocates nothing: the
// serial||aad binding is built in the ring's scratch, so the playback
// path decrypts every frame into one reused buffer. The ring's lock is
// held across the open.
func OpenPacketAppend(dst []byte, r *Ring, packet, aad []byte) ([]byte, error) {
	if len(packet) < 1 {
		return nil, cryptoutil.ErrShortData
	}
	serial := Serial(packet[0])
	r.mu.Lock()
	defer r.mu.Unlock()
	key, ok := r.sealerLocked(serial)
	if !ok {
		return nil, ErrUnknownSerial
	}
	r.aad = append(append(r.aad[:0], byte(serial)), aad...)
	pt, err := key.OpenAppend(dst, packet[1:], r.aad)
	if err != nil {
		return nil, ErrHijack
	}
	return pt, nil
}

func packetAAD(s Serial, aad []byte) []byte {
	full := make([]byte, 0, 1+len(aad))
	full = append(full, byte(s))
	return append(full, aad...)
}
