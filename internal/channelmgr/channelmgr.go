// Package channelmgr implements the Channel Manager (§IV-C, §IV-D,
// §IV-F2): it verifies User Tickets, evaluates channel policies against
// user attributes, issues and renews signed Channel Tickets, logs viewing
// activity, and returns peer lists.
//
// Like the User Manager, the two-round SWITCH handshake is stateless —
// round-1 state rides back through the client in an HMAC token — so a
// farm of Managers sharing a Config (keys, token secret, ViewLog,
// Directory) behind one simnet VIP acts as the paper's "multiple
// instantiations ... sharing a single network name/address,
// public/private key pair, and user viewing activity log" (§V).
package channelmgr

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"sync"
	"time"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/policy"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/stoken"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/ticket"
	"p2pdrm/internal/wire"
)

// Config parameterizes a Channel Manager (or a farm: every member gets
// the same Config including the shared Log and Dir).
type Config struct {
	// Keys is the farm-shared signing key pair.
	Keys *cryptoutil.KeyPair
	// UserMgrKey verifies User Ticket signatures.
	UserMgrKey cryptoutil.PublicKey
	// TokenSecret authenticates round-1 handshake tokens across the farm.
	TokenSecret []byte
	// TicketLifetime bounds Channel Ticket validity; the effective
	// lifetime is additionally capped by the User Ticket's remaining
	// life (§IV-C). Default 5 minutes.
	TicketLifetime time.Duration
	// ChallengeLifetime bounds round-1 challenges. Default 30 seconds.
	ChallengeLifetime time.Duration
	// RenewWindow is the "small window of the ticket expiration time"
	// within which a renewal is accepted (§IV-D). Default 1 minute.
	RenewWindow time.Duration
	// Partition names the Channel Listing Partition this manager serves;
	// "" accepts any channel it knows (§V).
	Partition string
	// PeersPerReply bounds the returned peer list. Default 8.
	PeersPerReply int
	// Log is the farm-shared viewing-activity log.
	Log *ViewLog
	// Dir is the farm-shared peer directory.
	Dir *Directory
	// RNG supplies nonces (nil = crypto/rand).
	RNG io.Reader
}

func (c *Config) fill() {
	if c.TicketLifetime <= 0 {
		c.TicketLifetime = 5 * time.Minute
	}
	if c.ChallengeLifetime <= 0 {
		c.ChallengeLifetime = 30 * time.Second
	}
	if c.RenewWindow <= 0 {
		c.RenewWindow = time.Minute
	}
	if c.PeersPerReply <= 0 {
		c.PeersPerReply = 8
	}
	if c.Log == nil {
		c.Log = NewViewLog(0)
	}
	if c.Dir == nil {
		c.Dir = NewDirectory(1)
	}
}

// Stats counts protocol outcomes.
type Stats struct {
	Switch1Served int64
	Switch2Served int64
	TicketsIssued int64
	Renewals      int64
	Denials       int64
}

// Manager is one Channel Manager backend.
type Manager struct {
	cfg    Config
	node   *simnet.Node
	rt     *svc.Runtime
	sealer *stoken.Sealer
	// userVerifier and chanVerifier memoize Ed25519 signature checks for
	// tickets this manager sees repeatedly: the same User Ticket arrives
	// on every SWITCH round for its whole lifetime, and an expiring
	// Channel Ticket is presented twice per renewal (SWITCH1 + SWITCH2).
	// chanVerifier also remembers every Channel Ticket this backend
	// signed, so a renewal landing on its issuer verifies nothing twice;
	// the cache is this backend's own, never shared across the farm.
	userVerifier *ticket.Verifier
	chanVerifier *ticket.Verifier

	mu       sync.Mutex
	channels map[string]*policy.Channel
	feedSeen uint64
	stats    Stats
}

// New creates a Channel Manager on the node and registers its services.
func New(node *simnet.Node, cfg Config) (*Manager, error) {
	if cfg.Keys == nil {
		return nil, fmt.Errorf("channelmgr: Keys are required")
	}
	if len(cfg.UserMgrKey.Verify) == 0 {
		return nil, fmt.Errorf("channelmgr: UserMgrKey is required")
	}
	if len(cfg.TokenSecret) == 0 {
		return nil, fmt.Errorf("channelmgr: TokenSecret is required")
	}
	cfg.fill()
	m := &Manager{
		cfg:          cfg,
		node:         node,
		rt:           svc.NewRuntime(node),
		sealer:       stoken.New(cfg.TokenSecret),
		userVerifier: ticket.NewVerifier(0),
		chanVerifier: ticket.NewVerifier(0),
		channels:     make(map[string]*policy.Channel),
	}
	svc.Register(m.rt, wire.SvcSwitch1, wire.DecodeSwitchReq, m.handleSwitch1)
	svc.Register(m.rt, wire.SvcSwitch2, wire.DecodeSwitchFinish, m.handleSwitch2)
	svc.RegisterOneWay(m.rt, wire.SvcChannelFeed, wire.DecodeFeed, m.handleChannelFeed)
	// Optional SSL-like transport (§IV-G1).
	if err := m.rt.EnableSealed(cfg.Keys, cfg.RNG, wire.SvcSwitch1, wire.SvcSwitch2); err != nil {
		return nil, err
	}
	return m, nil
}

// PublicKey returns the farm's public key.
func (m *Manager) PublicKey() cryptoutil.PublicKey { return m.cfg.Keys.Public() }

// Runtime exposes the manager's service runtime (endpoint metrics).
func (m *Manager) Runtime() *svc.Runtime { return m.rt }

// Stats returns a snapshot of protocol counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Directory exposes the shared peer directory (for wiring Channel Server
// roots and overlay churn).
func (m *Manager) Directory() *Directory { return m.cfg.Dir }

// Log exposes the shared viewing-activity log (license/royalty/billing
// reporting, §IV-C).
func (m *Manager) Log() *ViewLog { return m.cfg.Log }

// setChannels installs the Channel List for this manager's partition.
func (m *Manager) setChannels(chs []*policy.Channel) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.channels = make(map[string]*policy.Channel, len(chs))
	for _, c := range chs {
		if m.cfg.Partition != "" && c.Partition != m.cfg.Partition {
			continue
		}
		m.channels[c.ID] = c.Clone()
	}
}

func (m *Manager) handleChannelFeed(_ simnet.Addr, feed *wire.Feed) {
	chs, rest, err := policy.DecodeChannels(feed.Body)
	if err != nil || len(rest) != 0 {
		return // undecodable feed body: drop, the push is one-way
	}
	m.mu.Lock()
	stale := feed.Version <= m.feedSeen
	if !stale {
		m.feedSeen = feed.Version
	}
	m.mu.Unlock()
	if stale {
		return // reordered stale push
	}
	m.setChannels(chs)
}

func (m *Manager) channel(id string) (*policy.Channel, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.channels[id]
	return c, ok
}

func (m *Manager) deny() {
	m.mu.Lock()
	m.stats.Denials++
	m.mu.Unlock()
}

// verifyUserTicket runs the §IV-C checks shared by both rounds: signature,
// expiry, and NetAddr match against the current connection.
func (m *Manager) verifyUserTicket(blob []byte, from simnet.Addr, now time.Time) (*ticket.UserTicket, *wire.ServiceError) {
	ut, err := m.userVerifier.VerifyUser(blob, m.cfg.UserMgrKey)
	if err != nil {
		return nil, wire.Errf(wire.CodeBadTicket, "user ticket: %v", err)
	}
	if err := ut.ValidAt(now); err != nil {
		return nil, wire.Errf(wire.CodeExpiredTicket, "user ticket: %v", err)
	}
	if ut.NetAddr() != string(from) {
		return nil, wire.Errf(wire.CodeAddrMismatch,
			"ticket NetAddr %q != connection %q", ut.NetAddr(), from)
	}
	return ut, nil
}

// handleSwitch1 runs SWITCH1: validate the presented tickets and hand
// back a nonce challenge with stateless state.
func (m *Manager) handleSwitch1(from simnet.Addr, req *wire.SwitchReq) (*wire.SwitchChallenge, error) {
	now := m.node.Scheduler().Now()
	if _, serr := m.verifyUserTicket(req.UserTicket, from, now); serr != nil {
		m.deny()
		return nil, serr
	}
	channelID := req.ChannelID
	renewal := len(req.ExpiringTicket) > 0
	if renewal {
		// The expiring ticket stands in for the channel identification.
		ct, err := m.chanVerifier.VerifyChannel(req.ExpiringTicket, m.cfg.Keys.Public())
		if err != nil {
			m.deny()
			return nil, wire.Errf(wire.CodeBadTicket, "expiring ticket: %v", err)
		}
		channelID = ct.ChannelID
	}
	if _, ok := m.channel(channelID); !ok {
		m.deny()
		return nil, wire.Errf(wire.CodeNoChannel, "unknown channel %s", channelID)
	}

	nonce, err := cryptoutil.NewNonce(m.cfg.RNG)
	if err != nil {
		m.deny()
		return nil, wire.Errf(wire.CodeDenied, "nonce generation failed")
	}
	token := m.sealer.SealState(now.Add(m.cfg.ChallengeLifetime), func(e *wire.Enc) {
		e.Blob(nonce[:])
		e.Str(channelID)
		e.Bool(renewal)
		e.Blob(hash(req.UserTicket))
		e.Blob(hash(req.ExpiringTicket))
	})

	m.mu.Lock()
	m.stats.Switch1Served++
	m.mu.Unlock()
	return &wire.SwitchChallenge{Nonce: nonce[:], Token: token}, nil
}

// handleSwitch2 runs SWITCH2: verify the challenge echo and issue (or
// renew) the Channel Ticket plus a peer list.
func (m *Manager) handleSwitch2(from simnet.Addr, req *wire.SwitchFinish) (*wire.SwitchResp, error) {
	now := m.node.Scheduler().Now()
	var (
		nonce     []byte
		channelID string
		renewal   bool
		utHash    []byte
		etHash    []byte
	)
	err := m.sealer.OpenState(req.Token, now, func(d *wire.Dec) {
		nonce = d.Blob()
		channelID = d.Str()
		renewal = d.Bool()
		utHash = d.Blob()
		etHash = d.Blob()
	})
	if err != nil {
		m.deny()
		return nil, wire.Errf(wire.CodeBadToken, "%v", err)
	}
	if !bytes.Equal(nonce, req.Nonce) ||
		!bytes.Equal(utHash, hash(req.UserTicket)) ||
		!bytes.Equal(etHash, hash(req.ExpiringTicket)) {
		m.deny()
		return nil, wire.Errf(wire.CodeBadToken, "handshake material mismatch")
	}

	ut, serr := m.verifyUserTicket(req.UserTicket, from, now)
	if serr != nil {
		m.deny()
		return nil, serr
	}
	// Challenge response proves possession of the certified private key.
	if !ut.ClientKey.VerifySig(nonce, req.Sig) {
		m.deny()
		return nil, wire.Errf(wire.CodeDenied, "nonce signature invalid")
	}

	ch, ok := m.channel(channelID)
	if !ok {
		m.deny()
		return nil, wire.Errf(wire.CodeNoChannel, "unknown channel %s", channelID)
	}

	// Policy evaluation applies on both fresh issue and renewal (§IV-D:
	// "performs the same check as it would when issuing a new ticket").
	d := ch.EvaluateUser(ut.Attrs, now)
	if d.Effect != policy.Accept {
		m.deny()
		return nil, wire.Errf(wire.CodeDenied, "policy rejected access to %s", channelID)
	}
	// The grant is only as durable as the attributes that produced it: a
	// ticket issued just before a rights window closes (a PPV purchase
	// lapsing, an event-bounded channel attribute expiring) must not
	// outlive that window. Cap the ticket at the grant's provable end.
	grantEnd := policy.GrantWindowEnd(ch, d, ut.Attrs, now)

	var ct *ticket.ChannelTicket
	if renewal {
		old, err := m.chanVerifier.VerifyChannel(req.ExpiringTicket, m.cfg.Keys.Public())
		if err != nil {
			m.deny()
			return nil, wire.Errf(wire.CodeBadTicket, "expiring ticket: %v", err)
		}
		if ct, serr = m.renew(old, ut, from, now, grantEnd); serr != nil {
			m.deny()
			return nil, serr
		}
	} else {
		ct = m.freshTicket(ut, channelID, from, now, grantEnd)
	}
	blob := ticket.SignChannel(ct, m.cfg.Keys)
	m.chanVerifier.RememberChannel(blob, m.cfg.Keys.Public(), ct)

	// Track the client as a (future) peer on the channel until its
	// ticket lapses.
	m.cfg.Dir.Register(channelID, from, ct.Expiry)

	peers := m.cfg.Dir.Sample(channelID, m.cfg.PeersPerReply, from, now)

	m.mu.Lock()
	m.stats.Switch2Served++
	m.stats.TicketsIssued++
	if renewal {
		m.stats.Renewals++
	}
	m.mu.Unlock()
	return &wire.SwitchResp{ChannelTicket: blob, Peers: peers}, nil
}

// freshTicket issues a brand-new Channel Ticket and logs the viewing
// activity (§IV-C/§IV-D).
func (m *Manager) freshTicket(ut *ticket.UserTicket, channelID string, from simnet.Addr, now time.Time, grantEnd time.Time) *ticket.ChannelTicket {
	expiry := now.Add(m.cfg.TicketLifetime)
	if ut.Expiry.Before(expiry) {
		expiry = ut.Expiry // §IV-C: no longer than the User Ticket's remaining life
	}
	if !grantEnd.IsZero() && grantEnd.Before(expiry) {
		expiry = grantEnd // no longer than the rights that granted access
	}
	m.cfg.Log.add(ut.UserIN, channelID, from, now)
	return &ticket.ChannelTicket{
		UserIN:    ut.UserIN,
		ChannelID: channelID,
		NetAddr:   string(from),
		ClientKey: ut.ClientKey,
		Start:     now,
		Expiry:    expiry,
		Renewal:   false,
	}
}

// renew applies the §IV-D rules: the expiring ticket must be near its
// expiry, all three NetAddrs must agree, and the *latest* log entry for
// (UserIN, channel) must still point at this client — otherwise the user
// has since joined from elsewhere and this location is cut off.
func (m *Manager) renew(old *ticket.ChannelTicket, ut *ticket.UserTicket, from simnet.Addr, now time.Time, grantEnd time.Time) (*ticket.ChannelTicket, *wire.ServiceError) {
	if old.UserIN != ut.UserIN {
		return nil, wire.Errf(wire.CodeRenewalDenied, "ticket UserIN mismatch")
	}
	if old.NetAddr != string(from) {
		return nil, wire.Errf(wire.CodeAddrMismatch, "expiring ticket NetAddr mismatch")
	}
	d := old.Expiry.Sub(now)
	if d > m.cfg.RenewWindow || d < -m.cfg.RenewWindow {
		return nil, wire.Errf(wire.CodeRenewalWindow,
			"renewal outside window (expiry %v from now)", d)
	}
	entry, ok := m.cfg.Log.last(old.UserIN, old.ChannelID)
	if !ok {
		return nil, wire.Errf(wire.CodeRenewalDenied, "no viewing log entry")
	}
	if entry.NetAddr != from {
		return nil, wire.Errf(wire.CodeRenewalDenied,
			"account joined this channel from another location")
	}
	expiry := now.Add(m.cfg.TicketLifetime)
	if ut.Expiry.Before(expiry) {
		expiry = ut.Expiry
	}
	if !grantEnd.IsZero() && grantEnd.Before(expiry) {
		expiry = grantEnd
	}
	out := *old
	out.ClientKey = ut.ClientKey
	out.Expiry = expiry
	out.Renewal = true
	return &out, nil
}

func hash(b []byte) []byte {
	h := sha256.Sum256(b)
	return h[:]
}
