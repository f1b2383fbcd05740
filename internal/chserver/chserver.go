// Package chserver implements the Channel Server (§III Fig. 1, §IV-E):
// live content is ingested and encoded here, encrypted with the evolving
// symmetric content key, and injected into the channel's P2P overlay as
// the distribution root.
//
// The server re-keys at a fixed interval (one minute in the paper's
// example) for forward secrecy, marks each key iteration with an 8-bit
// serial, prepends the serial to every content packet, and pushes new
// key iterations into the overlay *in advance* of their use "to ensure
// that all clients would have received the new content key before they
// need it" (§IV-E).
package chserver

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/keys"
	"p2pdrm/internal/p2p"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/wire"
)

// Config parameterizes a Channel Server.
type Config struct {
	// ChannelID is the channel produced here.
	ChannelID string
	// ChanMgrKey verifies joiners' Channel Tickets at the root.
	ChanMgrKey cryptoutil.PublicKey
	// Keys is the server's identity for the overlay.
	Keys *cryptoutil.KeyPair
	// RekeyInterval rotates the content key (§IV-E suggests ~1 minute).
	// Default 1 minute.
	RekeyInterval time.Duration
	// KeyAdvance distributes each new key this long before use.
	// Default 10 seconds.
	KeyAdvance time.Duration
	// PacketInterval paces content production. Default 500ms.
	PacketInterval time.Duration
	// PacketSize is the synthetic frame payload size. Default 256 bytes.
	PacketSize int
	// Substreams splits the stream for peer-division multiplexing.
	// Default 4.
	Substreams int
	// MaxChildren bounds direct root fan-out. Default 16.
	MaxChildren int
	// Encrypt controls content encryption. Providers with a public
	// mandate may distribute in the clear (§IV-E fn. 2); access is still
	// Channel-Ticket-gated. Default true (set NoEncrypt to disable).
	NoEncrypt bool
	// RNG supplies key material and payload filler (nil = crypto/rand).
	RNG io.Reader
	// Arena backs the root peer's child state (see p2p.Config.Arena).
	Arena *p2p.Arena
	// HistoryWindow retains this many recent frames at the root for
	// time-shifted viewers (p2p.Config.HistoryWindow). 0 = no retention.
	HistoryWindow int
	// OnRekey observes every key iteration production switches onto,
	// including the initial key at Start. Called from the scheduler
	// context; used by conformance harnesses to build a rekey timeline.
	OnRekey func(serial keys.Serial)
}

func (c *Config) fill() {
	if c.RekeyInterval <= 0 {
		c.RekeyInterval = time.Minute
	}
	if c.KeyAdvance <= 0 || c.KeyAdvance >= c.RekeyInterval {
		c.KeyAdvance = c.RekeyInterval / 6
	}
	if c.PacketInterval <= 0 {
		c.PacketInterval = 500 * time.Millisecond
	}
	if c.PacketSize <= 0 {
		c.PacketSize = 256
	}
	if c.Substreams <= 0 {
		c.Substreams = 4
	}
	if c.MaxChildren <= 0 {
		c.MaxChildren = 16
	}
}

// Stats counts production activity.
type Stats struct {
	PacketsProduced int64
	Rekeys          int64
}

// Server is one channel's ingest/encode/encrypt root.
type Server struct {
	cfg  Config
	peer *p2p.Peer

	mu       sync.Mutex
	schedule *keys.Schedule
	// produce seals packets under the current key iteration with its AEAD
	// built once per rotation, not once per packet.
	produce  *keys.PacketSealer
	seq      uint64
	running  bool
	stopping bool
	stats    Stats

	cid []byte // ChannelID bytes, the per-packet AAD, converted once
}

// New creates a Channel Server rooted at the node.
func New(node *simnet.Node, cfg Config) (*Server, error) {
	if cfg.ChannelID == "" || cfg.Keys == nil {
		return nil, fmt.Errorf("chserver: ChannelID and Keys are required")
	}
	cfg.fill()
	peer, err := p2p.NewPeer(node, p2p.Config{
		ChannelID:   cfg.ChannelID,
		ChanMgrKey:  cfg.ChanMgrKey,
		Keys:        cfg.Keys,
		MaxChildren: cfg.MaxChildren,
		Substreams:  cfg.Substreams,
		RNG:         cfg.RNG,
		Arena:       cfg.Arena,

		HistoryWindow: cfg.HistoryWindow,
	})
	if err != nil {
		return nil, err
	}
	schedule, err := keys.NewSchedule(cfg.RNG)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg: cfg, peer: peer, schedule: schedule,
		produce: keys.NewPacketSealer(schedule.Current()),
		cid:     []byte(cfg.ChannelID),
	}, nil
}

// Peer returns the root overlay peer (register it with the Channel
// Manager's Directory so clients can find it).
func (s *Server) Peer() *p2p.Peer { return s.peer }

// Runtime exposes the root peer's service runtime (endpoint metrics).
func (s *Server) Runtime() *svc.Runtime { return s.peer.Runtime() }

// Addr returns the server's network address.
func (s *Server) Addr() simnet.Addr { return s.peer.Node().Addr() }

// CurrentKey returns the key iteration packets are sealed under now.
func (s *Server) CurrentKey() keys.ContentKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.produce.Key()
}

// Stats returns a snapshot of production counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Start begins key rotation and content production. Must be called
// before the scheduler runs (or from within a simulated goroutine).
func (s *Server) Start() {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return
	}
	s.running = true
	s.stopping = false
	s.mu.Unlock()

	// Seed the overlay with the initial key.
	k := s.CurrentKey()
	s.peer.InjectKey(k)
	if s.cfg.OnRekey != nil {
		s.cfg.OnRekey(k.Serial)
	}

	sched := s.peer.Node().Scheduler()
	sched.Go(s.rekeyLoop)
	sched.Go(s.produceLoop)
}

// Stop halts both loops at their next wake-up.
func (s *Server) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopping = true
	s.running = false
}

func (s *Server) stopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopping
}

// rekeyLoop rotates the content key each interval, distributing the new
// iteration KeyAdvance before switching production onto it.
func (s *Server) rekeyLoop() {
	sched := s.peer.Node().Scheduler()
	for {
		sched.Sleep(s.cfg.RekeyInterval - s.cfg.KeyAdvance)
		if s.stopped() {
			return
		}
		next, err := s.schedule.Rotate()
		if err != nil {
			continue
		}
		s.peer.InjectKey(next) // distribute ahead of use (§IV-E)
		sched.Sleep(s.cfg.KeyAdvance)
		if s.stopped() {
			return
		}
		sealer := keys.NewPacketSealer(next)
		s.mu.Lock()
		s.produce = sealer
		s.stats.Rekeys++
		s.mu.Unlock()
		if s.cfg.OnRekey != nil {
			s.cfg.OnRekey(next.Serial)
		}
	}
}

// ForceRekey rotates the content key immediately — no advance-distribution
// grace — and switches production onto it in the same step. This is the
// provider's emergency response to a leaked key (§IV-E: the serial space
// lets the provider "change the content key at any time"); adversarial
// scenarios call it in bursts to measure how a re-key storm degrades
// playback continuity for honest viewers.
func (s *Server) ForceRekey() (keys.Serial, error) {
	next, err := s.schedule.Rotate()
	if err != nil {
		return 0, err
	}
	s.peer.InjectKey(next)
	sealer := keys.NewPacketSealer(next)
	s.mu.Lock()
	s.produce = sealer
	s.stats.Rekeys++
	s.mu.Unlock()
	if s.cfg.OnRekey != nil {
		s.cfg.OnRekey(next.Serial)
	}
	return next.Serial, nil
}

// produceLoop emits one synthetic encoded frame per PacketInterval.
func (s *Server) produceLoop() {
	sched := s.peer.Node().Scheduler()
	for {
		sched.Sleep(s.cfg.PacketInterval)
		if s.stopped() {
			return
		}
		s.emit()
	}
}

// emit produces exactly one packet (exported for deterministic tests via
// EmitOne).
func (s *Server) emit() {
	s.mu.Lock()
	seq := s.seq
	s.seq++
	sealer := s.produce
	s.stats.PacketsProduced++
	s.mu.Unlock()

	payload := s.frame(seq)
	sub := uint8(seq % uint64(s.cfg.Substreams))
	hdrLen := wire.ContentPushHeaderLen(s.cfg.ChannelID)
	if s.cfg.NoEncrypt {
		enc := make([]byte, 0, hdrLen+len(payload))
		enc = wire.AppendContentPushHeader(enc, s.cfg.ChannelID, sub, seq, true, len(payload))
		enc = append(enc, payload...)
		s.peer.InjectFrame(sub, seq, enc[hdrLen:], true, enc)
		return
	}
	// Header and sealed payload in one exact-size buffer: the relay
	// fan-out sends this frame on every edge with no re-encode, and the
	// seal lands in place instead of through Seal's copy.
	sealedLen := sealer.SealedLen(len(payload))
	enc := make([]byte, 0, hdrLen+sealedLen)
	enc = wire.AppendContentPushHeader(enc, s.cfg.ChannelID, sub, seq, false, sealedLen)
	enc, err := sealer.SealAppend(enc, s.cfg.RNG, payload, s.cid)
	if err != nil {
		return
	}
	s.peer.InjectFrame(sub, seq, enc[hdrLen:], false, enc)
}

// EmitOne produces a single packet immediately (test/bench hook).
func (s *Server) EmitOne() { s.emit() }

// frame builds a synthetic encoded frame: sequence number, production
// timestamp, and filler up to PacketSize.
func (s *Server) frame(seq uint64) []byte {
	out := make([]byte, s.cfg.PacketSize)
	binary.BigEndian.PutUint64(out[0:8], seq)
	ts := s.peer.Node().Scheduler().Now().UnixNano()
	binary.BigEndian.PutUint64(out[8:16], uint64(ts))
	for i := 16; i < len(out); i++ {
		out[i] = byte(seq + uint64(i))
	}
	return out
}

// FrameSeq extracts the sequence number from a decrypted frame.
func FrameSeq(frame []byte) (uint64, bool) {
	if len(frame) < 16 {
		return 0, false
	}
	return binary.BigEndian.Uint64(frame[0:8]), true
}

// FrameTime extracts the production timestamp from a decrypted frame
// (used to measure playback lag).
func FrameTime(frame []byte) (time.Time, bool) {
	if len(frame) < 16 {
		return time.Time{}, false
	}
	return time.Unix(0, int64(binary.BigEndian.Uint64(frame[8:16]))).UTC(), true
}
