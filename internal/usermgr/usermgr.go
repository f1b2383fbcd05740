// Package usermgr implements the User Manager (§IV-B, §IV-F1): it
// authenticates users via the two-round login protocol, generates user
// attributes from account data, the client connection, and the Channel
// Attribute List, and issues signed User Tickets that certify the
// client's public key.
//
// The handshake is stateless (§V): round-1 state travels back to the
// client inside an HMAC-sealed token, so any farm member behind the
// shared address can complete round 2. A farm is deployed by giving
// several Managers the same Config (keys + token secret) behind one
// simnet VIP.
package usermgr

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"p2pdrm/internal/accountmgr"
	"p2pdrm/internal/attr"
	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/policy"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/stoken"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/ticket"
	"p2pdrm/internal/wire"
)

// Config parameterizes a User Manager (or a whole farm: every member gets
// the same Config).
type Config struct {
	// Accounts is the Account Manager feed.
	Accounts *accountmgr.Manager
	// Keys is the farm-shared key pair; its public half is baked into
	// clients (or delivered by the Redirection Manager).
	Keys *cryptoutil.KeyPair
	// TokenSecret authenticates round-1 handshake tokens across the farm.
	TokenSecret []byte
	// TicketLifetime bounds User Ticket validity. The paper recommends
	// less than the average program length (§IV-B). Default 10 minutes.
	TicketLifetime time.Duration
	// ChallengeLifetime bounds how long a round-1 challenge stays
	// answerable. Default 30 seconds.
	ChallengeLifetime time.Duration
	// MinVersion is the minimum client version admitted (§IV-F1).
	MinVersion uint32
	// ClientImage is the golden client binary for the attestation
	// checksum. Empty disables the checksum comparison.
	ClientImage []byte
	// Domain restricts service to accounts of one Authentication Domain
	// ("" serves every account) (§V).
	Domain string
	// RNG supplies nonces and checksum salts (nil = crypto/rand).
	RNG io.Reader

	// Shard is this member's view of a sharded farm's key map; nil for a
	// classic VIP farm. When set, both login rounds check that this
	// member owns the account's key-range and answer wire.CodeWrongShard
	// otherwise, and per-account hot state below becomes manager-local
	// (moved between members by the farm's handoff).
	Shard *svc.ShardView
	// LoginRateLimit caps round-1 challenges per account per RateWindow
	// (0 disables). Manager-local: meaningful under sharding, where one
	// member sees all of an account's traffic.
	LoginRateLimit int
	// RateWindow is the rate-limit window. Default 1 minute.
	RateWindow time.Duration
	// AbuseThreshold locks an account out after this many consecutive
	// failed round-2 verifications (0 disables).
	AbuseThreshold int
	// LockoutFor is the abuse lockout duration. Default 5 minutes.
	LockoutFor time.Duration
}

func (c *Config) fill() {
	if c.TicketLifetime <= 0 {
		c.TicketLifetime = 10 * time.Minute
	}
	if c.ChallengeLifetime <= 0 {
		c.ChallengeLifetime = 30 * time.Second
	}
	if c.RateWindow <= 0 {
		c.RateWindow = time.Minute
	}
	if c.LockoutFor <= 0 {
		c.LockoutFor = 5 * time.Minute
	}
}

// Stats counts protocol outcomes.
type Stats struct {
	Login1Served  int64
	Login2Served  int64
	TicketsIssued int64
	Failures      int64
	WrongShard    int64 // requests for accounts this member does not own
	RateLimited   int64 // round-1 challenges refused by the rate window
	LockedOut     int64 // logins refused during an abuse lockout
}

// accountState is one account's manager-local hot state: round-1
// challenge bookkeeping and the rate/abuse counters. Under sharding it
// lives only on the account's owner and travels in HandoffRecords when
// the ring moves the account.
type accountState struct {
	Challenges  int64     // round-1 challenges issued to the account
	WindowStart time.Time // current rate-limit window
	WindowCount int       // challenges inside the window
	ConsecFails int       // consecutive failed round-2 verifications
	LockedUntil time.Time // abuse lockout expiry (zero = not locked)
}

// Manager is one User Manager backend.
type Manager struct {
	cfg    Config
	node   *simnet.Node
	rt     *svc.Runtime
	sealer *stoken.Sealer

	mu        sync.Mutex
	chanAttrs policy.ChannelAttrList
	feedSeen  uint64
	stats     Stats
	accounts  map[string]*accountState // keyed by account email
}

// New creates a User Manager on the node and registers its services.
func New(node *simnet.Node, cfg Config) (*Manager, error) {
	if cfg.Accounts == nil || cfg.Keys == nil {
		return nil, fmt.Errorf("usermgr: Accounts and Keys are required")
	}
	if len(cfg.TokenSecret) == 0 {
		return nil, fmt.Errorf("usermgr: TokenSecret is required")
	}
	cfg.fill()
	m := &Manager{
		cfg:       cfg,
		node:      node,
		rt:        svc.NewRuntime(node),
		sealer:    stoken.New(cfg.TokenSecret),
		chanAttrs: policy.ChannelAttrList{},
		accounts:  make(map[string]*accountState),
	}
	svc.Register(m.rt, wire.SvcLogin1, wire.DecodeLogin1Req, m.handleLogin1)
	svc.Register(m.rt, wire.SvcLogin2, wire.DecodeLogin2Req, m.handleLogin2)
	svc.RegisterOneWay(m.rt, wire.SvcPolicyFeed, wire.DecodeFeed, m.handlePolicyFeed)
	// Optional SSL-like transport (§IV-G1): sealed variants of the
	// client-facing services under the farm key pair.
	if err := m.rt.EnableSealed(cfg.Keys, cfg.RNG, wire.SvcLogin1, wire.SvcLogin2); err != nil {
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

func (m *Manager) handlePolicyFeed(_ simnet.Addr, feed *wire.Feed) {
	l, err := policy.DecodeAttrList(feed.Body)
	if err != nil {
		return // undecodable feed body: drop, the push is one-way
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if feed.Version <= m.feedSeen {
		return // reordered stale push
	}
	m.feedSeen = feed.Version
	m.chanAttrs = l.Clone()
}

func (m *Manager) fail() {
	m.mu.Lock()
	m.stats.Failures++
	m.mu.Unlock()
}

// checkShard verifies this member owns the account's key-range. Must be
// called before m.mu is taken (the shard view locks the farm).
func (m *Manager) checkShard(email string) error {
	if m.cfg.Shard == nil {
		return nil
	}
	if err := m.cfg.Shard.Check(email); err != nil {
		m.mu.Lock()
		m.stats.WrongShard++
		m.mu.Unlock()
		return err
	}
	return nil
}

// acctState returns the account's hot-state record, creating it on first
// touch. Caller holds m.mu.
func (m *Manager) acctState(email string) *accountState {
	st := m.accounts[email]
	if st == nil {
		st = &accountState{}
		m.accounts[email] = st
	}
	return st
}

// admitChallenge applies the per-account lockout and rate window to a
// round-1 request and records the challenge on admission.
func (m *Manager) admitChallenge(email string, now time.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.acctState(email)
	if now.Before(st.LockedUntil) {
		m.stats.LockedOut++
		m.stats.Failures++
		return wire.Errf(wire.CodeDenied, "account locked out until %s", st.LockedUntil.Format(time.RFC3339))
	}
	if m.cfg.LoginRateLimit > 0 {
		if now.Sub(st.WindowStart) >= m.cfg.RateWindow {
			st.WindowStart = now
			st.WindowCount = 0
		}
		if st.WindowCount >= m.cfg.LoginRateLimit {
			m.stats.RateLimited++
			m.stats.Failures++
			return wire.Errf(wire.CodeDenied, "login rate limit exceeded")
		}
		st.WindowCount++
	}
	st.Challenges++
	return nil
}

// noteAuthFail records a failed round-2 verification and opens the abuse
// lockout at the threshold. noteAuthOK clears the consecutive count.
func (m *Manager) noteAuthFail(email string, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.acctState(email)
	st.ConsecFails++
	if m.cfg.AbuseThreshold > 0 && st.ConsecFails >= m.cfg.AbuseThreshold {
		st.LockedUntil = now.Add(m.cfg.LockoutFor)
		st.ConsecFails = 0
	}
}

func (m *Manager) noteAuthOK(email string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acctState(email).ConsecFails = 0
}

// ExportShard implements svc.ShardMember: it removes and returns every
// account record the new shard map assigns elsewhere, sorted by key so
// handoff contents are deterministic.
func (m *Manager) ExportShard(leaving func(key string) bool) []svc.HandoffRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []svc.HandoffRecord
	for email, st := range m.accounts {
		if leaving(email) {
			out = append(out, svc.HandoffRecord{Key: email, Data: st})
			delete(m.accounts, email)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ImportShard implements svc.ShardMember: it installs account records
// handed over from other members.
func (m *Manager) ImportShard(recs []svc.HandoffRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range recs {
		if st, ok := r.Data.(*accountState); ok {
			m.accounts[r.Key] = st
		}
	}
}

// handleLogin1 runs the first login round: locate the user, mint a nonce
// and checksum parameters, and return them sealed under shp along with
// the stateless handshake token.
func (m *Manager) handleLogin1(_ simnet.Addr, req *wire.Login1Req) (*wire.Login1Resp, error) {
	if err := m.checkShard(req.Email); err != nil {
		return nil, err
	}
	acct, err := m.cfg.Accounts.Lookup(req.Email)
	if err != nil {
		m.fail()
		return nil, wire.Errf(wire.CodeNoAccount, "unknown or disabled account")
	}
	if m.cfg.Domain != "" && acct.Domain != m.cfg.Domain {
		m.fail()
		return nil, wire.Errf(wire.CodeWrongDomain, "account served by another domain")
	}
	if err := m.admitChallenge(req.Email, m.node.Scheduler().Now()); err != nil {
		return nil, err
	}
	nonce, err := cryptoutil.NewNonce(m.cfg.RNG)
	if err != nil {
		m.fail()
		return nil, wire.Errf(wire.CodeDenied, "nonce generation failed")
	}
	params := m.newChecksumParams()

	// Challenge: shp-sealed nonce || params (§IV-F1). The per-account
	// cached sealer amortizes the AES/GCM setup across logins; accounts
	// injected without one (hand-built fixtures) fall back to one-shot.
	paramBytes := params.Encode()
	plain := make([]byte, 0, cryptoutil.NonceSize+16)
	plain = append(plain, nonce[:]...)
	plain = append(plain, paramBytes...)
	shpSealer := acct.SHPSealer
	if shpSealer == nil {
		shpSealer = acct.SHP.Sealer()
	}
	sealed, err := shpSealer.Seal(m.cfg.RNG, plain, nil)
	if err != nil {
		m.fail()
		return nil, wire.Errf(wire.CodeDenied, "challenge sealing failed")
	}

	// Stateless token: everything round 2 needs to verify the response.
	now := m.node.Scheduler().Now()
	token := m.sealer.SealState(now.Add(m.cfg.ChallengeLifetime), func(e *wire.Enc) {
		e.Str(req.Email)
		e.Blob(req.ClientKey)
		e.Blob(nonce[:])
		e.Blob(paramBytes)
		e.U32(req.Version)
	})

	m.mu.Lock()
	m.stats.Login1Served++
	m.mu.Unlock()
	return &wire.Login1Resp{Sealed: sealed, Token: token}, nil
}

func (m *Manager) newChecksumParams() cryptoutil.ChecksumParams {
	var p cryptoutil.ChecksumParams
	var raw [16]byte
	rng := m.cfg.RNG
	if rng != nil {
		_, _ = io.ReadFull(rng, raw[:])
	} else {
		n, _ := cryptoutil.NewNonce(nil)
		copy(raw[:], n[:])
	}
	imgLen := len(m.cfg.ClientImage)
	if imgLen == 0 {
		imgLen = 1
	}
	p.Offset = uint32(int(raw[0])<<8|int(raw[1])) % uint32(imgLen)
	p.Length = 64 + uint32(raw[2])
	copy(p.Salt[:], raw[3:11])
	return p
}

// handleLogin2 runs the second login round: verify the token, the nonce
// echo, the client signature (proof of private-key possession), and the
// attestation checksum, then issue the signed User Ticket.
func (m *Manager) handleLogin2(from simnet.Addr, req *wire.Login2Req) (*wire.Login2Resp, error) {
	// Ownership first: during a handoff's grace window the previous
	// owner still passes, so a login whose round 1 ran there completes.
	if err := m.checkShard(req.Email); err != nil {
		return nil, err
	}
	now := m.node.Scheduler().Now()
	var (
		email          string
		clientKeyBytes []byte
		nonce          []byte
		paramBytes     []byte
		version        uint32
	)
	err := m.sealer.OpenState(req.Token, now, func(d *wire.Dec) {
		email = d.Str()
		clientKeyBytes = d.Blob()
		nonce = d.Blob()
		paramBytes = d.Blob()
		version = d.U32()
	})
	if err != nil {
		m.fail()
		return nil, wire.Errf(wire.CodeBadToken, "%v", err)
	}
	if email != req.Email || !bytes.Equal(nonce, req.Nonce) {
		m.fail()
		m.noteAuthFail(req.Email, now)
		return nil, wire.Errf(wire.CodeDenied, "nonce or identity mismatch")
	}
	clientKey, err := cryptoutil.DecodePublicKey(clientKeyBytes)
	if err != nil {
		m.fail()
		m.noteAuthFail(email, now)
		return nil, wire.Errf(wire.CodeDenied, "bad client key")
	}
	// Proof of private-key possession: signature over nonce || checksum.
	signed := append(append([]byte(nil), req.Nonce...), req.Checksum...)
	if !clientKey.VerifySig(signed, req.Sig) {
		m.fail()
		m.noteAuthFail(email, now)
		return nil, wire.Errf(wire.CodeDenied, "client signature invalid")
	}
	// Remote attestation (rudimentary per the paper, §IV-F1 fn. 3).
	if len(m.cfg.ClientImage) > 0 {
		params, err := cryptoutil.DecodeChecksumParams(paramBytes)
		if err != nil {
			m.fail()
			return nil, wire.Errf(wire.CodeBadToken, "corrupt checksum params")
		}
		want := cryptoutil.Checksum(m.cfg.ClientImage, params)
		if !bytes.Equal(req.Checksum, want[:]) {
			m.fail()
			m.noteAuthFail(email, now)
			return nil, wire.Errf(wire.CodeBadAttestation, "client image checksum mismatch")
		}
	}
	if version < m.cfg.MinVersion {
		m.fail()
		return nil, wire.Errf(wire.CodeVersionTooOld,
			"client version %d < minimum %d", version, m.cfg.MinVersion)
	}
	// Re-read the account: subscriptions may have changed since round 1.
	acct, err := m.cfg.Accounts.Lookup(email)
	if err != nil {
		m.fail()
		return nil, wire.Errf(wire.CodeNoAccount, "account vanished")
	}

	attrs := m.buildUserAttrs(acct, from, version, now)
	ut := &ticket.UserTicket{
		UserIN:    acct.UserIN,
		ClientKey: clientKey,
		Start:     now,
		Expiry:    ticket.CapExpiry(now.Add(m.cfg.TicketLifetime), attrs),
		Attrs:     attrs,
	}
	blob := ticket.SignUser(ut, m.cfg.Keys)
	m.noteAuthOK(email)

	m.mu.Lock()
	m.stats.Login2Served++
	m.stats.TicketsIssued++
	m.mu.Unlock()
	return &wire.Login2Resp{
		UserTicket: blob,
		ServerTime: now,
		MinVersion: m.cfg.MinVersion,
	}, nil
}

// buildUserAttrs generates user attributes from the three sources of
// §IV-B: (1) account and subscription information, (2) client connection
// information, (3) the Channel Attribute List (for utimes).
func (m *Manager) buildUserAttrs(acct accountmgr.Account, from simnet.Addr, version uint32, now time.Time) attr.List {
	m.mu.Lock()
	cal := m.chanAttrs
	m.mu.Unlock()

	var l attr.List
	add := func(name string, value attr.Value, stime, etime time.Time) {
		l = append(l, attr.Attribute{
			Name:  name,
			Value: value,
			STime: stime,
			ETime: etime,
			UTime: cal.UTimeFor(name),
		})
	}

	// (2) Connection-derived attributes.
	add(attr.NameNetAddr, attr.Value(from), time.Time{}, time.Time{})
	if info, err := geo.Lookup(from); err == nil {
		add(attr.NameRegion, attr.Value(info.Region), time.Time{}, time.Time{})
		add(attr.NameAS, attr.Value(info.ASN), time.Time{}, time.Time{})
	}
	add(attr.NameVersion, attr.Value(strconv.FormatUint(uint64(version), 10)), time.Time{}, time.Time{})

	// (1) Subscriptions: only those not already over (future starts are
	// fine — the stime carries them).
	for _, s := range acct.Subscriptions {
		if !s.End.IsZero() && !now.Before(s.End) {
			continue
		}
		add(attr.NameSubscription, attr.Value(s.Package), s.Start, s.End)
	}
	return l
}
