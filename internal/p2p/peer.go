// Package p2p implements the per-channel distribution overlay the DRM
// system rides on (§III, §IV-E, §IV-F3):
//
//   - admission is gated on a valid Channel Ticket: a target peer only
//     verifies the Channel Manager's signature, the expiry, the NetAddr
//     match, and that it carries the requested channel — no policy
//     evaluation, no access to other user attributes (privacy
//     intermediation, §IV-C);
//   - each accepted peering link gets a pairwise symmetric session key,
//     sent sealed to the joiner's certified public key;
//   - the evolving content key is pushed down the tree, re-encrypted
//     per-link under session keys; duplicates (from multiple parents) are
//     discarded by serial;
//   - encrypted content packets flow down sub-streams (receiver-based
//     peer-division multiplexing: a client may draw different sub-streams
//     from different parents);
//   - a peering relationship is severed when the child's Channel Ticket
//     expires without a renewal ticket being presented (§IV-D).
package p2p

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/keys"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/ticket"
	"p2pdrm/internal/wire"
)

// sortAddrs orders addresses collected from a map: fan-out message order
// decides the order of the simulator's seeded latency draws, so it must
// not depend on map iteration order.
func sortAddrs(a []simnet.Addr) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}

// Join errors.
var (
	ErrJoinRejected = errors.New("p2p: join rejected")
	ErrSeekRejected = errors.New("p2p: seek rejected")
	ErrNoSession    = errors.New("p2p: session key missing")
)

// Config parameterizes a Peer.
type Config struct {
	// ChannelID is the channel this peer carries.
	ChannelID string
	// ChanMgrKey verifies Channel Tickets presented by joiners.
	ChanMgrKey cryptoutil.PublicKey
	// Keys is this peer's identity (receives sealed session keys).
	Keys *cryptoutil.KeyPair
	// MaxChildren bounds downstream fan-out ("if resources at the peers
	// permit", §III). Default 4.
	MaxChildren int
	// Capacity is the serving capacity this peer advertises when joining
	// parents. 0 advertises MaxChildren (the cooperative default); a
	// negative value advertises zero — a declared free-rider. Parents
	// count zero-capacity joiners and refuse them once half their child
	// slots are taken, reserving the rest for contributors.
	Capacity int
	// Substreams is the channel's sub-stream count. Default 4.
	Substreams int
	// HistoryWindow retains the last N relayed frames for time-shift
	// seeks (SvcSeek). 0 retains nothing: seeks are refused with
	// seek_too_deep. Frames are retained still sealed under their
	// original content-key iteration, so history deeper than the key
	// window is unreadable to any requester (forward secrecy holds).
	HistoryWindow int
	// KeyWindow sizes the content-key ring. Default keys.DefaultWindow.
	KeyWindow int
	// ExpiryGrace extends a child's eviction deadline slightly past its
	// ticket expiry so an in-flight renewal can land. Default 10s.
	ExpiryGrace time.Duration
	// TicketCache bounds the verified Channel Ticket cache: joiners and
	// renewers present the same signed blob repeatedly, and a cache hit
	// skips the Ed25519 check (validity windows are still enforced per
	// use). Default 256 entries.
	TicketCache int
	// Arena backs the peer's hot child/dedup state with shared flat
	// slabs. Peers sharing an arena must run on one scheduler lane (a
	// System, or one shard of a sharded run). Nil gives the peer a small
	// private arena.
	Arena *Arena
	// RNG supplies session keys and seal nonces (nil = crypto/rand).
	RNG io.Reader
	// OnPacket, when set, receives each decrypted packet exactly once
	// (local playback). Relays leave it nil: forwarding never decrypts.
	// Like bufio.Scanner.Bytes, payload is valid only until the callback
	// returns — the next packet is decrypted into the same buffer — so a
	// callback that keeps it must copy it (bytes.Clone). It is also
	// read-only: a clear packet is a view into the received frame, which
	// is forwarded to children and kept in the time-shift history.
	OnPacket func(seq uint64, payload []byte)
	// OnDecrypt, when set, observes every live decrypt attempt on the
	// local playback path: the packet's key serial, its sequence number,
	// and the outcome (nil, keys.ErrUnknownSerial, keys.ErrHijack).
	// Clear packets carry no serial and are not reported. The
	// rights-conformance oracle rides this hook.
	OnDecrypt func(serial keys.Serial, seq uint64, err error)
	// OnHijack, when set, is told about packets failing authentication.
	OnHijack func(seq uint64, err error)
	// OnParentLoss, when set, is notified when a parent severs the link
	// (expiry or departure) so the owner can re-join elsewhere.
	OnParentLoss func(parent simnet.Addr, substreams []uint8)
	// OnChildEvicted, when set, observes expiry enforcement.
	OnChildEvicted func(child simnet.Addr)
	// OnKey, when set, observes each new content-key iteration entering
	// the ring (join response, parent push, direct rekey) — the causal
	// tracer's "first key delivered" milestone rides this hook.
	OnKey func(serial keys.Serial)
}

func (c *Config) fill() {
	if c.MaxChildren <= 0 {
		c.MaxChildren = 4
	}
	if c.Capacity < 0 {
		c.Capacity = 0 // declared free-rider
	} else if c.Capacity == 0 {
		c.Capacity = c.MaxChildren
	}
	if c.Substreams <= 0 {
		c.Substreams = 4
	}
	if c.KeyWindow <= 0 {
		c.KeyWindow = keys.DefaultWindow
	}
	if c.ExpiryGrace <= 0 {
		c.ExpiryGrace = 10 * time.Second
	}
	if c.TicketCache <= 0 {
		c.TicketCache = 256
	}
}

// Stats counts overlay activity.
type Stats struct {
	PacketsReceived  int64
	PacketsForwarded int64
	PacketsDelivered int64
	PacketsDuplicate int64
	PacketsUndecrypt int64
	KeysReceived     int64
	KeysDuplicate    int64
	KeysForwarded    int64
	JoinsAccepted    int64
	JoinsRejected    int64
	ChildrenEvicted  int64
	// Free-rider detection: joins accepted from peers advertising zero
	// serving capacity, and joins refused to protect contributor slots.
	FreeRiderJoins    int64
	FreeRidersRefused int64
	// Time-shift serving: seeks answered with frames, seeks refused
	// (typed), and total history frames shipped.
	SeeksServed         int64
	SeeksRejected       int64
	HistoryFramesServed int64
}

// substreamSet is a 256-bit subscription mask — substream IDs are uint8,
// so four words cover the space without a per-child map.
type substreamSet [4]uint64

func (s *substreamSet) add(i uint8)      { s[i>>6] |= 1 << (i & 63) }
func (s *substreamSet) has(i uint8) bool { return s[i>>6]&(1<<(i&63)) != 0 }
func (s *substreamSet) union(o substreamSet) {
	for i := range s {
		s[i] |= o[i]
	}
}

type child struct {
	addr       simnet.Addr
	session    *cryptoutil.SealKey
	expiry     time.Time
	substreams substreamSet
}

type parent struct {
	addr       simnet.Addr
	session    *cryptoutil.SealKey
	substreams []uint8
}

// Peer is one overlay endpoint: the Channel Server root, a relay, or a
// viewing client (all three share the same mechanics).
type Peer struct {
	cfg      Config
	node     *simnet.Node
	rt       *svc.Runtime
	verifier *ticket.Verifier

	mu       sync.Mutex
	ring     *keys.Ring
	arena    *Arena
	children map[simnet.Addr]childHandle
	// kidList mirrors children sorted by address: every fan-out (key
	// push, content relay, rekey) walks this flat handle slice into the
	// arena's child slabs instead of chasing per-child heap pointers.
	// The order also fixes the simulator's seeded latency-draw sequence.
	kidList    []childHandle
	parents    map[simnet.Addr]*parent
	ourTicket  []byte
	seenSeq    map[uint64]bool
	seenRing   []uint64 // fixed-capacity eviction ring over seenSeq
	seenPos    int
	seenWindow int
	// hist retains the last HistoryWindow relayed frames (still sealed)
	// for time-shift seeks, as a circular buffer.
	hist     []wire.HistoryFrame
	histNext int
	histFull bool
	// plain is the playback buffer every delivered packet is opened into
	// (OnPacket's payload): one per peer, grown to the largest frame and
	// reused. Only the delivery path touches it, outside mu — the engine
	// runs one simulated goroutine at a time and delivery never parks.
	plain  []byte
	stats  Stats
	closed bool
}

// childIndexLocked finds addr's position in the sorted kidList.
func (p *Peer) childIndexLocked(addr simnet.Addr) (int, bool) {
	i := sort.Search(len(p.kidList), func(i int) bool {
		return p.arena.at(p.kidList[i]).addr >= addr
	})
	return i, i < len(p.kidList) && p.arena.at(p.kidList[i]).addr == addr
}

// insertChildLocked files a freshly allocated child slot under its
// address, keeping kidList sorted. The caller has filled the slot.
func (p *Peer) insertChildLocked(addr simnet.Addr, h childHandle) {
	i, ok := p.childIndexLocked(addr)
	if ok {
		panic("p2p: duplicate child insert")
	}
	p.kidList = append(p.kidList, 0)
	copy(p.kidList[i+1:], p.kidList[i:])
	p.kidList[i] = h
	p.children[addr] = h
}

// delChildLocked removes a child from both views and returns its slot
// to the arena.
func (p *Peer) delChildLocked(addr simnet.Addr) {
	h, ok := p.children[addr]
	if !ok {
		return
	}
	if i, ok := p.childIndexLocked(addr); ok {
		p.kidList = append(p.kidList[:i], p.kidList[i+1:]...)
	}
	delete(p.children, addr)
	p.arena.release(h)
}

// NewPeer creates a peer on the node and registers overlay services.
func NewPeer(node *simnet.Node, cfg Config) (*Peer, error) {
	if cfg.ChannelID == "" {
		return nil, fmt.Errorf("p2p: ChannelID is required")
	}
	if cfg.Keys == nil {
		return nil, fmt.Errorf("p2p: Keys are required")
	}
	cfg.fill()
	arena := cfg.Arena
	if arena == nil {
		arena = NewArena(0)
	}
	p := &Peer{
		cfg:        cfg,
		node:       node,
		rt:         svc.NewRuntime(node),
		verifier:   ticket.NewVerifier(cfg.TicketCache),
		ring:       keys.NewRing(cfg.KeyWindow),
		arena:      arena,
		children:   make(map[simnet.Addr]childHandle),
		parents:    make(map[simnet.Addr]*parent),
		seenSeq:    make(map[uint64]bool),
		seenWindow: 4096,
	}
	// seenRing is carved from the arena's slab on the first relayed
	// packet: most peers are short-lived viewers that may never relay,
	// so paying the window up front would dominate NewPeer's footprint,
	// and departed peers' rings recycle through the arena.
	svc.Register(p.rt, wire.SvcJoin, wire.DecodeJoinReq, p.handleJoin)
	svc.Register(p.rt, wire.SvcSeek, wire.DecodeSeekReq, p.handleSeek)
	svc.RegisterOneWay(p.rt, wire.SvcKeyPush, wire.DecodeKeyPush, p.handleKeyPush)
	svc.RegisterOneWay(p.rt, wire.SvcContent, wire.DecodeContentPush, p.handleContent)
	svc.RegisterOneWay(p.rt, wire.SvcRenewal, wire.DecodeRenewalPresent, p.handleRenewal)
	svc.RegisterOneWay(p.rt, wire.SvcLeave, wire.DecodeLeaveNotice, p.handleLeave)
	svc.RegisterOneWay(p.rt, wire.SvcPeerExpire, wire.DecodeLeaveNotice, p.handlePeerExpire)
	return p, nil
}

// Node returns the underlying simnet node.
func (p *Peer) Node() *simnet.Node { return p.node }

// Runtime exposes the peer's service runtime (endpoint metrics).
func (p *Peer) Runtime() *svc.Runtime { return p.rt }

// Stats returns a snapshot of overlay counters.
func (p *Peer) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Ring exposes the content-key ring (the client's playback path uses it).
func (p *Peer) Ring() *keys.Ring { return p.ring }

// Children reports current downstream count.
func (p *Peer) Children() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.children)
}

// Parents reports current upstream count.
func (p *Peer) Parents() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.parents)
}

// SetTicket installs this peer's own Channel Ticket used when joining
// parents and when presenting renewals.
func (p *Peer) SetTicket(blob []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ourTicket = blob
}

// --- Serving side -----------------------------------------------------

// handleJoin admits a joiner per §IV-F3: verify the Channel Ticket
// against the Channel Manager's signature, the expiry, the NetAddr, and
// the channel match; check resources; then hand back a session key sealed
// to the client's certified public key and the current content keys
// sealed under the session key.
func (p *Peer) handleJoin(from simnet.Addr, req *wire.JoinReq) (*wire.JoinResp, error) {
	ct, code, reason := p.admitTicket(from, req.ChannelTicket)
	if code != wire.CodeUnknown {
		return p.rejectJoin(code, reason)
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return p.rejectJoin(wire.CodeDeparting, "peer departing")
	}
	if _, dup := p.children[from]; !dup {
		if len(p.children) >= p.cfg.MaxChildren {
			p.mu.Unlock()
			return p.rejectJoin(wire.CodeNoCapacity, "no free capacity")
		}
		// Contributor reservation: once half the slots are taken, joiners
		// advertising zero serving capacity (free-riders) are turned away
		// so the remaining fan-out goes to peers that grow the tree.
		if req.Capacity == 0 && len(p.children) >= (p.cfg.MaxChildren+1)/2 {
			p.stats.FreeRidersRefused++
			p.mu.Unlock()
			return p.rejectJoin(wire.CodeFreeRider, "zero-capacity joiner: slots reserved for contributors")
		}
	}
	p.mu.Unlock()

	session, err := cryptoutil.NewSymKey(p.cfg.RNG)
	if err != nil {
		return p.rejectJoin(wire.CodeInternal, "session key generation failed")
	}
	sealedSession, err := cryptoutil.Seal(p.cfg.RNG, ct.ClientKey, session[:])
	if err != nil {
		return p.rejectJoin(wire.CodeInternal, "session key sealing failed")
	}
	// The pairwise session key lives for the whole peering; build its
	// AEAD once here and reuse it for every key push and content seal.
	sealer := session.Sealer()
	// Current content keys, each sealed under the new session key (§IV-E).
	var sealedKeys [][]byte
	for _, ck := range p.ring.Snapshot() {
		sk, err := sealer.Seal(p.cfg.RNG, ck.Encode(), nil)
		if err != nil {
			continue
		}
		sealedKeys = append(sealedKeys, sk)
	}

	var subs substreamSet
	if len(req.Substreams) == 0 {
		for i := 0; i < p.cfg.Substreams; i++ {
			subs.add(uint8(i))
		}
	}
	for _, s := range req.Substreams {
		subs.add(s)
	}

	p.mu.Lock()
	if h, ok := p.children[from]; ok {
		// A re-join from an existing child widens its subscription; the
		// earlier sub-streams keep flowing (multi-request PDM).
		c := p.arena.at(h)
		subs.union(c.substreams)
		*c = child{addr: from, session: sealer, expiry: ct.Expiry, substreams: subs}
	} else {
		h = p.arena.alloc()
		*p.arena.at(h) = child{addr: from, session: sealer, expiry: ct.Expiry, substreams: subs}
		p.insertChildLocked(from, h)
	}
	p.stats.JoinsAccepted++
	if req.Capacity == 0 {
		p.stats.FreeRiderJoins++
	}
	p.mu.Unlock()
	p.scheduleEviction(from, ct.Expiry)

	return &wire.JoinResp{
		Accept:        true,
		SealedSession: sealedSession,
		SealedKeys:    sealedKeys,
	}, nil
}

// admitTicket runs the §IV-F3 admission checks shared by join and seek:
// signature, validity window, NetAddr binding, channel match. It returns
// the verified ticket, or a typed refusal (code != CodeUnknown).
func (p *Peer) admitTicket(from simnet.Addr, blob []byte) (*ticket.ChannelTicket, wire.Code, string) {
	now := p.node.Scheduler().Now()
	ct, err := p.verifier.VerifyChannel(blob, p.cfg.ChanMgrKey)
	if err != nil {
		return nil, wire.CodeBadTicket, "channel ticket: " + err.Error()
	}
	if err := ct.ValidAt(now); err != nil {
		return nil, wire.CodeExpiredTicket, "channel ticket: " + err.Error()
	}
	if ct.NetAddr != string(from) {
		return nil, wire.CodeAddrMismatch, "ticket NetAddr does not match connection"
	}
	if ct.ChannelID != p.cfg.ChannelID {
		return nil, wire.CodeWrongChannel, "not carrying channel " + ct.ChannelID
	}
	return ct, wire.CodeUnknown, ""
}

func (p *Peer) rejectJoin(code wire.Code, reason string) (*wire.JoinResp, error) {
	p.mu.Lock()
	p.stats.JoinsRejected++
	p.mu.Unlock()
	return &wire.JoinResp{Accept: false, Reason: reason, Code: code}, nil
}

// maxSeekFrames bounds one seek reply regardless of the request.
const maxSeekFrames = 64

// handleSeek serves retained history frames to a rights-holder: the
// same admission checks as a join gate the read, frames come back still
// sealed under their original key iteration, and a request older than
// the retained window is refused with seek_too_deep. Serving history
// never re-encrypts — whether the seeker can *decrypt* what it fetched
// is decided entirely by its own key ring (§IV-E forward secrecy).
func (p *Peer) handleSeek(from simnet.Addr, req *wire.SeekReq) (*wire.SeekResp, error) {
	if _, code, reason := p.admitTicket(from, req.ChannelTicket); code != wire.CodeUnknown {
		return p.rejectSeek(code, reason)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return p.rejectSeek(wire.CodeDeparting, "peer departing")
	}
	n := len(p.hist)
	if p.cfg.HistoryWindow <= 0 || n == 0 {
		p.mu.Unlock()
		return p.rejectSeek(wire.CodeSeekTooDeep, "no history retained")
	}
	// Oldest-first walk of the circular buffer.
	start := 0
	if p.histFull {
		start = p.histNext
	}
	oldest := p.hist[start].Seq
	newest := p.hist[(start+n-1)%n].Seq
	if req.FromSeq < oldest {
		p.mu.Unlock()
		resp, err := p.rejectSeek(wire.CodeSeekTooDeep,
			fmt.Sprintf("seq %d evicted (oldest retained %d)", req.FromSeq, oldest))
		resp.OldestSeq, resp.NewestSeq = oldest, newest
		return resp, err
	}
	max := int(req.MaxFrames)
	if max <= 0 || max > maxSeekFrames {
		max = maxSeekFrames
	}
	var frames [][]byte
	for i := 0; i < n && len(frames) < max; i++ {
		f := &p.hist[(start+i)%n]
		if f.Seq >= req.FromSeq {
			frames = append(frames, f.Encode())
		}
	}
	p.stats.SeeksServed++
	p.stats.HistoryFramesServed += int64(len(frames))
	p.mu.Unlock()
	return &wire.SeekResp{Accept: true, OldestSeq: oldest, NewestSeq: newest, Frames: frames}, nil
}

func (p *Peer) rejectSeek(code wire.Code, reason string) (*wire.SeekResp, error) {
	p.mu.Lock()
	p.stats.SeeksRejected++
	p.mu.Unlock()
	return &wire.SeekResp{Accept: false, Reason: reason, Code: code}, nil
}

// scheduleEviction severs the peering when the child's ticket lapses
// without renewal (§IV-D).
func (p *Peer) scheduleEviction(addr simnet.Addr, expiry time.Time) {
	s := p.node.Scheduler()
	s.At(expiry.Add(p.cfg.ExpiryGrace), func() {
		now := s.Now()
		p.mu.Lock()
		h, ok := p.children[addr]
		if !ok || now.Before(p.arena.at(h).expiry.Add(p.cfg.ExpiryGrace)) {
			// Gone already, or a renewal pushed the expiry out (a fresh
			// eviction check was scheduled by the renewal).
			p.mu.Unlock()
			return
		}
		p.delChildLocked(addr)
		p.stats.ChildrenEvicted++
		cb := p.cfg.OnChildEvicted
		p.mu.Unlock()
		note := &wire.LeaveNotice{ChannelID: p.cfg.ChannelID}
		p.node.Send(addr, wire.SvcPeerExpire, note.Encode())
		if cb != nil {
			cb(addr)
		}
	})
}

// handleRenewal accepts a renewed Channel Ticket from an existing child
// and extends the peering (§IV-D).
func (p *Peer) handleRenewal(from simnet.Addr, req *wire.RenewalPresent) {
	now := p.node.Scheduler().Now()
	ct, err := p.verifier.VerifyChannel(req.ChannelTicket, p.cfg.ChanMgrKey)
	if err != nil || ct.ValidAt(now) != nil || ct.NetAddr != string(from) ||
		ct.ChannelID != p.cfg.ChannelID {
		return // silently ignore invalid renewals
	}
	p.mu.Lock()
	h, ok := p.children[from]
	if ok {
		if c := p.arena.at(h); ct.Expiry.After(c.expiry) {
			c.expiry = ct.Expiry
		}
	}
	p.mu.Unlock()
	if ok {
		p.scheduleEviction(from, ct.Expiry)
	}
}

// handleLeave removes a departing child.
func (p *Peer) handleLeave(from simnet.Addr, _ *wire.LeaveNotice) {
	p.mu.Lock()
	p.delChildLocked(from)
	p.mu.Unlock()
}

// handlePeerExpire is the client-side notification that a parent severed
// the link.
func (p *Peer) handlePeerExpire(from simnet.Addr, _ *wire.LeaveNotice) {
	p.mu.Lock()
	pr, ok := p.parents[from]
	if ok {
		delete(p.parents, from)
	}
	cb := p.cfg.OnParentLoss
	p.mu.Unlock()
	if ok && cb != nil {
		cb(from, pr.substreams)
	}
}

// --- Joining side -----------------------------------------------------

// JoinParent performs the JOIN round against a candidate parent, asking
// for the given sub-streams. Must run in a simulated goroutine.
func (p *Peer) JoinParent(addr simnet.Addr, substreams []uint8, timeout time.Duration) error {
	return p.JoinParentTraced(wire.TraceCtx{}, addr, substreams, timeout)
}

// JoinParentTraced is JoinParent carrying a causal trace context: the
// JOIN request wears the context's envelope so the parent's runtime can
// emit a server span for the admission decision. A zero context is
// byte-identical to JoinParent.
func (p *Peer) JoinParentTraced(tc wire.TraceCtx, addr simnet.Addr, substreams []uint8, timeout time.Duration) error {
	p.mu.Lock()
	tkt := p.ourTicket
	p.mu.Unlock()
	if len(tkt) == 0 {
		return fmt.Errorf("p2p: no channel ticket set")
	}
	cap := p.cfg.Capacity
	if cap > 0xffff {
		cap = 0xffff
	}
	req := &wire.JoinReq{ChannelTicket: tkt, Substreams: substreams, Capacity: uint16(cap)}
	var t svc.Transport = svc.Plain{Node: p.node, Timeout: timeout}
	if tc.Valid() {
		t = svc.Traced{Inner: t, Ctx: tc}
	}
	resp, err := svc.Invoke(t, addr, wire.SvcJoin, req, wire.DecodeJoinResp)
	if err != nil {
		return fmt.Errorf("join %s: %w", addr, err)
	}
	if !resp.Accept {
		// Wrap the typed refusal so callers can errors.As into
		// *wire.ServiceError and switch on the code.
		return fmt.Errorf("%w by %s: %w", ErrJoinRejected, addr,
			&wire.ServiceError{Code: resp.Code, Msg: resp.Reason})
	}
	sessionBytes, err := p.cfg.Keys.Open(resp.SealedSession)
	if err != nil || len(sessionBytes) != cryptoutil.SymKeySize {
		return fmt.Errorf("join %s: session key: %w", addr, ErrNoSession)
	}
	var session cryptoutil.SymKey
	copy(session[:], sessionBytes)
	sealer := session.Sealer()
	for _, sk := range resp.SealedKeys {
		raw, err := sealer.Open(sk, nil)
		if err != nil {
			continue
		}
		ck, err := keys.DecodeContentKey(raw)
		if err != nil {
			continue
		}
		p.addKey(ck)
	}
	p.mu.Lock()
	p.parents[addr] = &parent{addr: addr, session: sealer, substreams: substreams}
	p.mu.Unlock()
	return nil
}

// SeekHistory fetches retained history frames from a parent (or any
// peer that will admit our Channel Ticket): the time-shift read path.
// Frames come back still sealed; decryptability is decided by this
// peer's own key ring. Must run in a simulated goroutine. On refusal
// the error wraps ErrSeekRejected and a *wire.ServiceError carrying the
// typed code (seek_too_deep, expired_ticket, ...).
func (p *Peer) SeekHistory(addr simnet.Addr, fromSeq uint64, maxFrames int, timeout time.Duration) (*wire.SeekResp, []wire.HistoryFrame, error) {
	p.mu.Lock()
	tkt := p.ourTicket
	p.mu.Unlock()
	if len(tkt) == 0 {
		return nil, nil, fmt.Errorf("p2p: no channel ticket set")
	}
	if maxFrames < 0 || maxFrames > maxSeekFrames {
		maxFrames = maxSeekFrames
	}
	req := &wire.SeekReq{ChannelTicket: tkt, FromSeq: fromSeq, MaxFrames: uint32(maxFrames)}
	t := svc.Plain{Node: p.node, Timeout: timeout}
	resp, err := svc.Invoke(t, addr, wire.SvcSeek, req, wire.DecodeSeekResp)
	if err != nil {
		return nil, nil, fmt.Errorf("seek %s: %w", addr, err)
	}
	if !resp.Accept {
		return resp, nil, fmt.Errorf("%w by %s: %w", ErrSeekRejected, addr,
			&wire.ServiceError{Code: resp.Code, Msg: resp.Reason})
	}
	frames := make([]wire.HistoryFrame, 0, len(resp.Frames))
	for _, blob := range resp.Frames {
		f, err := wire.DecodeHistoryFrame(blob)
		if err != nil {
			continue
		}
		frames = append(frames, *f)
	}
	return resp, frames, nil
}

// OpenHistory decrypts a sealed history frame with this peer's key ring.
// Fails with keys.ErrUnknownSerial when the frame's key iteration has
// slid out of the ring window — the forward-secrecy bound on how deep a
// time-shifted viewer can actually read.
func (p *Peer) OpenHistory(f wire.HistoryFrame) ([]byte, error) {
	if f.Clear {
		return f.Packet, nil
	}
	return keys.OpenPacket(p.ring, f.Packet, []byte(p.cfg.ChannelID))
}

// ParentAddrs returns the current parents sorted by address.
func (p *Peer) ParentAddrs() []simnet.Addr {
	p.mu.Lock()
	addrs := make([]simnet.Addr, 0, len(p.parents))
	for a := range p.parents {
		addrs = append(addrs, a)
	}
	p.mu.Unlock()
	sortAddrs(addrs)
	return addrs
}

// PresentRenewal pushes a renewed Channel Ticket to every parent.
func (p *Peer) PresentRenewal(blob []byte) {
	p.SetTicket(blob)
	msg := &wire.RenewalPresent{ChannelTicket: blob}
	enc := msg.Encode()
	p.mu.Lock()
	addrs := make([]simnet.Addr, 0, len(p.parents))
	for a := range p.parents {
		addrs = append(addrs, a)
	}
	p.mu.Unlock()
	sortAddrs(addrs)
	for _, a := range addrs {
		p.node.Send(a, wire.SvcRenewal, enc)
	}
}

// Leave departs the overlay: parents drop us, children are told to
// re-parent.
func (p *Peer) Leave() {
	note := (&wire.LeaveNotice{ChannelID: p.cfg.ChannelID}).Encode()
	expire := (&wire.LeaveNotice{ChannelID: p.cfg.ChannelID}).Encode()
	p.mu.Lock()
	p.closed = true
	parents := make([]simnet.Addr, 0, len(p.parents))
	for a := range p.parents {
		parents = append(parents, a)
	}
	// Snapshot child addresses before their slots go back to the arena
	// (a recycled slot may be refilled by another peer's join).
	children := make([]simnet.Addr, 0, len(p.kidList))
	for _, h := range p.kidList {
		children = append(children, p.arena.at(h).addr)
	}
	for _, h := range p.kidList {
		p.arena.release(h)
	}
	p.parents = make(map[simnet.Addr]*parent)
	p.children = make(map[simnet.Addr]childHandle)
	p.kidList = nil
	p.arena.releaseSeen(p.seenRing)
	p.seenRing = nil
	p.seenSeq = make(map[uint64]bool)
	p.seenPos = 0
	p.hist = nil
	p.histNext = 0
	p.histFull = false
	p.plain = nil
	p.mu.Unlock()
	sortAddrs(parents)
	for _, a := range parents {
		p.node.Send(a, wire.SvcLeave, note)
	}
	for _, a := range children {
		p.node.Send(a, wire.SvcPeerExpire, expire)
	}
}

// --- Key distribution (§IV-E) ------------------------------------------

// InjectKey enters a fresh content-key iteration at this peer (the
// Channel Server root calls this on every rotation) and forwards it.
func (p *Peer) InjectKey(ck keys.ContentKey) {
	p.addKey(ck)
}

// addKey stores a key iteration and, if new, re-encrypts it for each
// child under the pairwise session key and pushes it on. One rekey
// walks the sorted child list directly and builds each edge's wire
// message in a single exact-size buffer: header framing first, then the
// per-link seal appended in place (the buffer is retained by the
// network until delivery, so it cannot be pooled — one allocation per
// edge is the floor).
func (p *Peer) addKey(ck keys.ContentKey) {
	if !p.ring.Add(ck) {
		p.mu.Lock()
		p.stats.KeysDuplicate++
		p.mu.Unlock()
		return
	}
	if cb := p.cfg.OnKey; cb != nil {
		cb(ck.Serial)
	}
	var rawBuf [keys.ContentKeyLen]byte
	raw := ck.AppendEncode(rawBuf[:0])
	p.mu.Lock()
	p.stats.KeysReceived++
	headerLen := wire.KeyPushHeaderLen(p.cfg.ChannelID)
	forwarded := int64(0)
	for _, h := range p.kidList {
		c := p.arena.at(h)
		sealedLen := c.session.SealedLen(len(raw))
		buf := make([]byte, 0, headerLen+sealedLen)
		buf = wire.AppendKeyPushHeader(buf, p.cfg.ChannelID, sealedLen)
		buf, err := c.session.SealAppend(buf, p.cfg.RNG, raw, nil)
		if err != nil {
			continue
		}
		p.node.Send(c.addr, wire.SvcKeyPush, buf)
		forwarded++
	}
	p.stats.KeysForwarded += forwarded
	p.mu.Unlock()
}

// handleKeyPush receives a content key from a parent, decrypts it with
// the pairwise session key, and relays.
func (p *Peer) handleKeyPush(from simnet.Addr, msg *wire.KeyPush) {
	if msg.ChannelID != p.cfg.ChannelID {
		return
	}
	p.mu.Lock()
	pr, ok := p.parents[from]
	p.mu.Unlock()
	if !ok {
		return // keys only flow down established peerings
	}
	raw, err := pr.session.Open(msg.SealedKey, nil)
	if err != nil {
		return
	}
	ck, err := keys.DecodeContentKey(raw)
	if err != nil {
		return
	}
	p.addKey(ck)
}

// --- Content distribution ----------------------------------------------

// InjectFrame enters a packet together with its pre-encoded ContentPush
// frame: enc must be the wire encoding of (ChannelID, substream, seq,
// clear, packet), with packet aliasing the frame's tail. The Channel
// Server builds header and sealed payload in one exact-size buffer
// (wire.AppendContentPushHeader + PacketSealer.SealAppend), and the
// relay fan-out then reuses that buffer for every edge instead of
// re-encoding.
func (p *Peer) InjectFrame(substream uint8, seq uint64, packet []byte, clear bool, enc []byte) {
	p.relayFrame(substream, seq, packet, clear, enc)
}

// relayFrame dedups, forwards to subscribed children, and delivers
// locally if configured. enc is the packet's ContentPush frame — the one
// the Channel Server built, or the one a relay received — and goes out
// unchanged on every edge; enc == nil (a test injecting a bare packet)
// encodes it once, on the first subscribed edge. The fan-out walks the
// sorted child list under one lock hold — no target-slice collection, no
// re-sort, stats batched into a single update.
func (p *Peer) relayFrame(substream uint8, seq uint64, packet []byte, clear bool, enc []byte) {
	p.mu.Lock()
	if p.closed {
		// Departed: the dedup ring is back in the arena, so late
		// packets are dropped rather than tracked.
		p.mu.Unlock()
		return
	}
	if p.seenSeq[seq] {
		p.stats.PacketsDuplicate++
		p.mu.Unlock()
		return
	}
	p.seenSeq[seq] = true
	if len(p.seenRing) < p.seenWindow {
		if p.seenRing == nil {
			p.seenRing = p.arena.grabSeen(p.seenWindow)
		}
		p.seenRing = append(p.seenRing, seq)
	} else {
		delete(p.seenSeq, p.seenRing[p.seenPos])
		p.seenRing[p.seenPos] = seq
		p.seenPos++
		if p.seenPos == p.seenWindow {
			p.seenPos = 0
		}
	}
	p.stats.PacketsReceived++
	if p.cfg.HistoryWindow > 0 {
		// Retain the sealed frame for time-shift seeks. The packet is a
		// view into a frame that is immutable once sent (simnet.Node.Send),
		// so aliasing it is safe.
		f := wire.HistoryFrame{Substream: substream, Seq: seq, Clear: clear, Packet: packet}
		if len(p.hist) < p.cfg.HistoryWindow {
			p.hist = append(p.hist, f)
		} else {
			p.hist[p.histNext] = f
			p.histNext++
			if p.histNext == p.cfg.HistoryWindow {
				p.histNext = 0
			}
			p.histFull = true
		}
	}
	forwarded := int64(0)
	for _, h := range p.kidList {
		c := p.arena.at(h)
		if !c.substreams.has(substream) {
			continue
		}
		if enc == nil {
			msg := &wire.ContentPush{
				ChannelID: p.cfg.ChannelID, Substream: substream, Seq: seq,
				Clear: clear, Packet: packet,
			}
			enc = msg.Encode()
		}
		p.node.Send(c.addr, wire.SvcContent, enc)
		forwarded++
	}
	p.stats.PacketsForwarded += forwarded
	deliver := p.cfg.OnPacket
	hijack := p.cfg.OnHijack
	observe := p.cfg.OnDecrypt
	p.mu.Unlock()

	if deliver != nil {
		if clear {
			p.mu.Lock()
			p.stats.PacketsDelivered++
			p.mu.Unlock()
			deliver(seq, packet)
			return
		}
		payload, err := keys.OpenPacketAppend(p.plain[:0], p.ring, packet, []byte(p.cfg.ChannelID))
		if err == nil {
			p.plain = payload
		}
		if observe != nil && len(packet) > 0 {
			observe(keys.Serial(packet[0]), seq, err)
		}
		if err != nil {
			p.mu.Lock()
			p.stats.PacketsUndecrypt++
			p.mu.Unlock()
			if hijack != nil && errors.Is(err, keys.ErrHijack) {
				hijack(seq, err)
			}
			return
		}
		p.mu.Lock()
		p.stats.PacketsDelivered++
		p.mu.Unlock()
		deliver(seq, payload)
	}
}

// handleContent receives a packet from a parent and relays the frame it
// arrived in: the decoder is canonical, so msg.Frame is byte-for-byte the
// ContentPush every child would otherwise be sent re-encoded.
func (p *Peer) handleContent(from simnet.Addr, msg wire.ContentPush) {
	if msg.ChannelID != p.cfg.ChannelID {
		return
	}
	p.mu.Lock()
	_, ok := p.parents[from]
	p.mu.Unlock()
	if !ok {
		return // content only flows down established peerings
	}
	p.relayFrame(msg.Substream, msg.Seq, msg.Packet, msg.Clear, msg.Frame)
}
