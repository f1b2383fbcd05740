// Package client implements the DRM client (§III, Fig. 1): every time it
// runs it authenticates the user with the User Manager (steps 1–2),
// obtains Channel Tickets from the Channel Manager when the user picks or
// switches channels (steps 3–4), presents the Channel Ticket to peers to
// join the channel's P2P overlay (steps 5–6), keeps both tickets renewed
// in time to avoid service interruption, and records per-round protocol
// latencies in its feedback log (§VI).
package client

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"p2pdrm/internal/attr"
	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/feedback"
	"p2pdrm/internal/keys"
	"p2pdrm/internal/obs"
	"p2pdrm/internal/p2p"
	"p2pdrm/internal/policy"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/ticket"
	"p2pdrm/internal/wire"
)

// Client errors.
var (
	ErrNotLoggedIn  = errors.New("client: not logged in")
	ErrNoChannel    = errors.New("client: channel not in channel list")
	ErrNoPeers      = errors.New("client: no peers could be joined")
	ErrBadChallenge = errors.New("client: cannot decrypt login challenge (wrong password?)")
)

// renewMargin renews tickets this long before expiry. stallTimeout
// resets the channel (fresh switch + peer list) when no frame has arrived
// for this long — the self-healing path for orphaned overlay subtrees
// after parent churn; it is only armed when Config.OnFrame is set.
const (
	renewMargin  = 30 * time.Second
	stallTimeout = 30 * time.Second
)

// Config parameterizes a client.
type Config struct {
	// Email / Password identify the user's account.
	Email    string
	Password string
	// RedirectAddr is the Redirection Manager (built into the client, §V).
	RedirectAddr simnet.Addr
	// Version is the client software version (§IV-F1).
	Version uint32
	// Image is the client binary image checksummed for attestation.
	Image []byte
	// Substreams is the channel sub-stream count. Default 4.
	Substreams int
	// Parents is how many parents to draw sub-streams from. Default 2.
	Parents int
	// RPCTimeout bounds each protocol round (one transport attempt).
	// Default 10s.
	RPCTimeout time.Duration
	// RPCAttempts is the transport attempt budget for idempotent rounds
	// (first try included): manager farms sit behind one address, so a
	// retry lands on another (healthy) backend — the client-visible half
	// of farm failover. Default 2.
	RPCAttempts int
	// BreakerThreshold is the consecutive-timeout count per destination
	// that opens the client's circuit breaker (negative disables it);
	// BreakerCooldown is how long an open circuit fails fast before
	// probing. Defaults 4 and 10s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Trace, when non-nil, receives protocol-round spans (policy calls,
	// breaker opens, protocol restarts). Nil disables tracing at zero
	// cost; a harness typically shares one ring across all its clients.
	Trace *obs.Trace
	// TraceID, when non-zero together with Trace, puts this client in the
	// traced cohort: logins and channel switches become causal journeys —
	// a span tree of stages, policy calls, server handlers, and first-key
	// / first-decrypt milestones — instead of flat protocol spans. Derive
	// it with obs.TraceIDFor(seed, email) so the cohort and every span ID
	// are pure functions of the run seed, not of scheduling order.
	TraceID uint64
	// RNG supplies key material (nil = crypto/rand).
	RNG io.Reader
	// SecureTransport turns on the SSL-like sealed transport for all
	// infrastructure communication (§IV-G1). Requires RedirectKey.
	SecureTransport bool
	// RedirectKey is the Redirection Manager's public key, built into
	// the client alongside its address (§V); needed for SecureTransport.
	RedirectKey []byte
	// Arena backs the overlay peer's child state (see p2p.Config.Arena);
	// a System shares one arena across all its clients and roots.
	Arena *p2p.Arena
	// Tickets is the verified-ticket memo the client checks the tickets
	// it receives through, and hands to its overlay peer. A System
	// shares one across the deployment, where the issuing manager has
	// already remembered each ticket. The client signs its LOGIN2 and
	// SWITCH2 challenges through its Crypto memo for the managers sharing
	// it, and takes its shp SealKey from it. Nil gives the client a
	// private memo.
	Tickets *ticket.Verifier
	// Lists is the deployment's memo of decoded Channel Lists: a fetch
	// of bytes another client or Channel Manager already decoded shares
	// that decode, read-only. Nil decodes every fetch afresh.
	Lists *policy.Lists
	// OnFrame receives each decrypted, deduplicated content frame. As
	// with p2p.Config.OnPacket, payload is read-only and valid only until
	// the callback returns (the next frame reuses its buffer); copy it to
	// keep it.
	OnFrame func(seq uint64, payload []byte)
	// OnDecrypt observes every encrypted-packet decrypt attempt (serial,
	// sequence, and outcome) before dedup — the conformance oracle's view
	// of what this viewer could actually read (see p2p.Config.OnDecrypt).
	OnDecrypt func(serial keys.Serial, seq uint64, err error)
	// PeerCapacity is the serving capacity this client advertises when
	// joining parents: 0 = cooperative (advertise the peer's MaxChildren),
	// negative = declared free-rider (advertise zero slots).
	PeerCapacity int
}

func (c *Config) fill() {
	if c.Substreams <= 0 {
		c.Substreams = 4
	}
	if c.Parents <= 0 {
		c.Parents = 2
	}
	if c.Parents > c.Substreams {
		c.Parents = c.Substreams
	}
	if c.Tickets == nil {
		c.Tickets = ticket.NewVerifier(0)
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 10 * time.Second
	}
	if c.RPCAttempts <= 0 {
		c.RPCAttempts = 2
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 4
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
}

// Stats counts client-side activity. Retries and BreakerOpens come from
// the transport policy; Restarts counts protocol-level restarts (a
// round-2 timeout re-running login/switch from round 1).
type Stats struct {
	Logins         int64
	Switches       int64
	Renewals       int64
	RenewalsFailed int64
	Rejoins        int64
	ListFetches    int64
	Stalls         int64
	Retries        int64
	Restarts       int64
	BreakerOpens   int64
}

// Client is one running instance of the client software.
type Client struct {
	cfg  Config
	node *simnet.Node
	keys *cryptoutil.KeyPair
	flog *feedback.Log
	pol  *svc.Policy
	// shpSealer caches the password hash's SealKey, taken from the
	// deployment's memo (shared with the User Manager sealing the
	// challenge): hashing then happens once per client, not once per
	// login (renewals re-login for the life of the process). Set by the
	// first Login; guarded by mu.
	shpSealer *cryptoutil.SealKey

	mu sync.Mutex
	// Infrastructure coordinates (from the Redirection Manager).
	umAddr simnet.Addr
	umKey  cryptoutil.PublicKey
	pmAddr simnet.Addr
	pmKey  cryptoutil.PublicKey
	rmKey  cryptoutil.PublicKey
	// Login state.
	userTicketBlob []byte
	userTicket     *ticket.UserTicket
	prevAttrs      attr.List
	channels       map[string]*policy.Channel
	// Viewing state.
	watchingID   string
	chanTicket   *ticket.ChannelTicket
	chanBlob     []byte
	peer         *p2p.Peer
	lastPeers    []string
	chanMgrAddr  simnet.Addr
	chanMgrKey   cryptoutil.PublicKey
	parentSubs   map[simnet.Addr][]uint8
	lastFrameAt  time.Time
	lastFrameSub []time.Time
	watchedAt    time.Time
	generation   int
	stats        Stats
	// journeySeq numbers this client's traced journeys (login, switch) so
	// each derives a distinct trace ID; per-client state, so the sequence
	// is deterministic whatever other clients do.
	journeySeq uint64
}

// New creates a client on the node with a fresh key pair.
func New(node *simnet.Node, cfg Config) (*Client, error) {
	if cfg.Email == "" || cfg.RedirectAddr == "" {
		return nil, fmt.Errorf("client: Email and RedirectAddr are required")
	}
	cfg.fill()
	kp, err := cryptoutil.NewKeyPair(cfg.RNG)
	if err != nil {
		return nil, err
	}
	c := &Client{
		cfg:      cfg,
		node:     node,
		keys:     kp,
		flog:     feedback.NewLog(),
		channels: make(map[string]*policy.Channel),
		pol: svc.NewPolicy(node.Scheduler(), svc.PolicyConfig{
			DefaultDeadline:  cfg.RPCTimeout,
			MaxAttempts:      cfg.RPCAttempts,
			BreakerThreshold: cfg.BreakerThreshold,
			BreakerCooldown:  cfg.BreakerCooldown,
			Trace:            cfg.Trace,
		}),
	}
	if cfg.SecureTransport {
		rmKey, err := cryptoutil.DecodePublicKey(cfg.RedirectKey)
		if err != nil {
			return nil, fmt.Errorf("client: SecureTransport needs the Redirection Manager key: %w", err)
		}
		c.rmKey = rmKey
	}
	return c, nil
}

// attempt returns the per-attempt sender for infrastructure RPCs: sealed
// when SecureTransport is on and the server's public key is known
// (§IV-G1), plain otherwise.
func (c *Client) attempt(pub cryptoutil.PublicKey) svc.AttemptFunc {
	if c.cfg.SecureTransport && len(pub.Verify) > 0 {
		return svc.SealedAttempt(c.node, pub, c.cfg.RNG)
	}
	return svc.PlainAttempt(c.node)
}

// transport is the policy-decorated transport every infrastructure call
// goes through: per-round deadlines, bounded retries for idempotent
// rounds (a retry lands on another farm backend behind the VIP — the
// client-visible half of farm failover), and the per-destination circuit
// breaker.
func (c *Client) transport(pub cryptoutil.PublicKey) svc.Transport {
	return svc.PolicyTransport{Policy: c.pol, Attempt: c.attempt(pub)}
}

// measuredTransport additionally records the protocol round in the
// feedback log (§VI). The measurement wraps the whole policy call, so a
// round's recorded latency includes its retries — what a viewer would
// actually wait.
type measuredTransport struct {
	c     *Client
	inner svc.Transport
	round feedback.Round
}

func (c *Client) measured(pub cryptoutil.PublicKey, round feedback.Round) svc.Transport {
	return measuredTransport{c: c, inner: c.transport(pub), round: round}
}

func (t measuredTransport) RoundTrip(dst simnet.Addr, service string, payload []byte) ([]byte, error) {
	s := t.c.node.Scheduler()
	start := s.Now()
	resp, err := t.inner.RoundTrip(dst, service, payload)
	t.c.flog.Record(t.round, start, s.Now().Sub(start), err == nil)
	return resp, err
}

// FeedbackLog exposes the client's feedback log (§VI).
func (c *Client) FeedbackLog() *feedback.Log { return c.flog }

// Stats returns a snapshot of client counters. Transport-level figures
// (retries, breaker opens) come from the policy.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	st.Retries = c.pol.Retries()
	st.BreakerOpens = c.pol.BreakerOpens()
	return st
}

// Policy exposes the client's transport policy (per-service counters,
// breaker state) for tests and the experiment harness.
func (c *Client) Policy() *svc.Policy { return c.pol }

// Node exposes the client's network endpoint (tests and tooling).
func (c *Client) Node() *simnet.Node { return c.node }

// UserTicketBlob returns the signed User Ticket exactly as it travels on
// the wire (nil before login).
func (c *Client) UserTicketBlob() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.userTicketBlob...)
}

// ChannelTicketBlob returns the signed Channel Ticket as it travels on
// the wire (nil when not watching).
func (c *Client) ChannelTicketBlob() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.chanBlob...)
}

// UserTicket returns the current parsed User Ticket (nil before login).
// It is shared through the verified-ticket memo: read-only.
func (c *Client) UserTicket() *ticket.UserTicket {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.userTicket
}

// ChannelTicket returns the current parsed Channel Ticket (nil when not
// watching). It is shared through the verified-ticket memo: read-only.
func (c *Client) ChannelTicket() *ticket.ChannelTicket {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chanTicket
}

// Watching returns the channel currently being watched ("" if none).
func (c *Client) Watching() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.watchingID
}

// Login runs the full startup sequence: Redirection Manager lookup, the
// two-round login protocol, and — if any attribute utime is newer than in
// the previous ticket — a Channel List refresh (§IV-B). The non-idempotent
// LOGIN2 round is never retried at the transport (a resend would burn its
// one-time token); on a transport timeout anywhere in the sequence the
// whole protocol restarts once from round 1 with fresh state. Must run in
// a simulated goroutine.
func (c *Client) Login() error {
	j := c.beginJourney("login")
	err := c.login(j)
	j.finish(err)
	return err
}

// login is the Login body with its journey threaded through (nil when
// this client — or this path, e.g. a mid-renewal re-login — is
// untraced).
func (c *Client) login(j *journey) error {
	err := c.loginOnce(j)
	if err != nil && errors.Is(err, simnet.ErrRPCTimeout) {
		c.noteRestart(j, "login")
		err = c.loginOnce(j)
	}
	return err
}

// noteRestart counts one protocol-level restart and traces its cause
// (proto names the restarted protocol: "login" or "switch").
func (c *Client) noteRestart(j *journey, proto string) {
	c.mu.Lock()
	c.stats.Restarts++
	c.mu.Unlock()
	j.closeStage("timeout")
	c.noteSpan(j, proto, "transport timeout mid-protocol; restarting at round 1 instead of resending a one-time round-2 token")
}

// noteSpan emits a zero-width restart span — threaded under the journey
// root when traced, flat (as before journeys existed) otherwise.
func (c *Client) noteSpan(j *journey, proto, detail string) {
	tr := c.cfg.Trace
	if tr == nil {
		return
	}
	now := c.node.Scheduler().Now()
	sp := obs.Span{
		Begin: now, End: now, Kind: obs.KindRestart, Service: proto,
		Detail: detail,
	}
	if j != nil {
		j.seq++
		sp.Trace = j.trace
		sp.Parent = j.root
		sp.ID = obs.SpanID(j.trace, j.root, "restart:"+proto, j.seq)
	}
	tr.Emit(sp)
}

// loginOnce is one pass of the startup sequence.
func (c *Client) loginOnce(j *journey) error {
	c.mu.Lock()
	rmKey := c.rmKey
	c.mu.Unlock()
	// Redirection (not one of the five measured rounds).
	j.enter("redirect")
	rreq := &wire.RedirectReq{Email: c.cfg.Email}
	rresp, err := svc.Invoke(c.traced(j, c.transport(rmKey)), c.cfg.RedirectAddr, wire.SvcRedirect, rreq, wire.DecodeRedirectResp)
	if err != nil {
		return fmt.Errorf("redirect: %w", err)
	}
	umKey, err := cryptoutil.DecodePublicKey(rresp.UserMgrKey)
	if err != nil {
		return fmt.Errorf("redirect: user manager key: %w", err)
	}
	c.mu.Lock()
	c.umAddr = simnet.Addr(rresp.UserMgr)
	c.umKey = umKey
	c.pmAddr = simnet.Addr(rresp.PolicyMgr)
	if len(rresp.PolicyMgrKey) > 0 {
		if pmKey, err := cryptoutil.DecodePublicKey(rresp.PolicyMgrKey); err == nil {
			c.pmKey = pmKey
		}
	}
	c.mu.Unlock()

	// LOGIN1.
	j.enter("login1")
	req1 := &wire.Login1Req{
		Email:     c.cfg.Email,
		ClientKey: c.keys.Public().Encode(),
		Version:   c.cfg.Version,
	}
	resp1, err := svc.Invoke(c.traced(j, c.measured(umKey, feedback.Login1)), c.umAddr, wire.SvcLogin1, req1, wire.DecodeLogin1Resp)
	if err != nil {
		return fmt.Errorf("login1: %w", err)
	}
	c.mu.Lock()
	shp := c.shpSealer
	if shp == nil {
		shp = c.cfg.Tickets.Crypto().Sealer(cryptoutil.HashPassword(c.cfg.Password, c.cfg.Email))
		c.shpSealer = shp
	}
	c.mu.Unlock()
	plain, err := shp.Open(resp1.Sealed, nil)
	if err != nil || len(plain) != cryptoutil.NonceSize+16 {
		return ErrBadChallenge
	}
	nonce := plain[:cryptoutil.NonceSize]
	params, err := cryptoutil.DecodeChecksumParams(plain[cryptoutil.NonceSize:])
	if err != nil {
		return fmt.Errorf("login1: challenge params: %w", err)
	}
	sum := cryptoutil.Checksum(c.cfg.Image, params)

	// LOGIN2.
	j.enter("login2")
	signed := append(append([]byte(nil), nonce...), sum[:]...)
	req2 := &wire.Login2Req{
		Email: c.cfg.Email, Token: resp1.Token, Nonce: nonce,
		Checksum: sum[:], Sig: c.cfg.Tickets.Crypto().Sign(c.keys, signed),
	}
	resp2, err := svc.Invoke(c.traced(j, c.measured(umKey, feedback.Login2)), c.umAddr, wire.SvcLogin2, req2, wire.DecodeLogin2Resp)
	if err != nil {
		return fmt.Errorf("login2: %w", err)
	}
	ut, err := c.cfg.Tickets.VerifyUser(resp2.UserTicket, umKey)
	if err != nil {
		return fmt.Errorf("login2: %w", err)
	}

	c.mu.Lock()
	prev := c.prevAttrs
	c.userTicketBlob = resp2.UserTicket
	c.userTicket = ut
	c.prevAttrs = ut.Attrs.Clone()
	needList := len(c.channels) == 0
	c.stats.Logins++
	c.mu.Unlock()

	// §IV-B: compare utimes against the previous ticket; refresh the
	// Channel List if anything is newer.
	stale := staleNames(prev, ut.Attrs)
	if len(stale) > 0 || needList {
		j.enter("chanlist")
		if err := c.fetchChannelList(j, stale); err != nil {
			return fmt.Errorf("channel list: %w", err)
		}
	}
	return nil
}

// staleNames lists attribute names whose utime in cur is newer than in
// prev (all names on first login are handled by the needList path).
func staleNames(prev, cur attr.List) []string {
	if prev == nil {
		return nil
	}
	var out []string
	for _, a := range cur {
		p, ok := prev.First(a.Name)
		if ok && a.UTime.After(p.UTime) {
			out = append(out, a.Name)
		}
	}
	return out
}

// FetchChannelList retrieves the Channel List from the Channel Policy
// Manager, presenting the User Ticket.
func (c *Client) FetchChannelList(staleNames []string) error {
	return c.fetchChannelList(nil, staleNames)
}

func (c *Client) fetchChannelList(j *journey, staleNames []string) error {
	c.mu.Lock()
	blob := c.userTicketBlob
	pm := c.pmAddr
	pmKey := c.pmKey
	c.mu.Unlock()
	if blob == nil {
		return ErrNotLoggedIn
	}
	req := &wire.ChanListReq{UserTicket: blob, StaleNames: staleNames}
	resp, err := svc.Invoke(c.traced(j, c.transport(pmKey)), pm, wire.SvcChanList, req, wire.DecodeChanListResp)
	if err != nil {
		return err
	}
	lineup, err := c.cfg.Lists.Decode(resp.Channels)
	if err != nil {
		return fmt.Errorf("client: malformed channel list")
	}
	c.mu.Lock()
	c.channels = lineup.ByID
	c.stats.ListFetches++
	c.mu.Unlock()
	return nil
}

// AvailableChannels lists channels the user can watch right now, by
// locally evaluating each channel's policy against the ticket attributes
// (the client "presents the list of available channels for user
// selection", §IV-C).
func (c *Client) AvailableChannels() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.userTicket == nil {
		return nil
	}
	now := c.node.Scheduler().Now()
	var out []string
	for id, ch := range c.channels {
		if d := ch.EvaluateUser(c.userTicket.Attrs, now); d.Effect == policy.Accept {
			out = append(out, id)
		}
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// channelManagerFor resolves the Channel Manager serving a channel from
// the per-channel coordinates in the Channel List (§V).
func (c *Client) channelManagerFor(ch *policy.Channel) (simnet.Addr, cryptoutil.PublicKey, error) {
	if ch != nil && ch.MgrAddr != "" {
		key, err := cryptoutil.DecodePublicKey(ch.MgrKey)
		if err != nil {
			return "", cryptoutil.PublicKey{}, fmt.Errorf("client: channel manager key: %w", err)
		}
		return simnet.Addr(ch.MgrAddr), key, nil
	}
	return "", cryptoutil.PublicKey{}, fmt.Errorf("client: no channel manager known")
}

// switchProtocol runs SWITCH1+SWITCH2 and returns the response. expiring
// is non-nil for renewals. Like Login, a transport timeout restarts the
// two-round protocol once from SWITCH1 — the SWITCH2 token is one-time,
// so the transport never resends it blind.
func (c *Client) switchProtocol(j *journey, cm simnet.Addr, cmKey cryptoutil.PublicKey, channelID string, expiring []byte) (*wire.SwitchResp, error) {
	resp, err := c.switchOnce(j, cm, cmKey, channelID, expiring)
	if err != nil && errors.Is(err, simnet.ErrRPCTimeout) {
		c.noteRestart(j, "switch")
		resp, err = c.switchOnce(j, cm, cmKey, channelID, expiring)
	}
	return resp, err
}

// switchOnce is one pass of the two-round switch protocol.
func (c *Client) switchOnce(j *journey, cm simnet.Addr, cmKey cryptoutil.PublicKey, channelID string, expiring []byte) (*wire.SwitchResp, error) {
	c.mu.Lock()
	blob := c.userTicketBlob
	c.mu.Unlock()
	if blob == nil {
		return nil, ErrNotLoggedIn
	}
	j.enter("switch1")
	req := &wire.SwitchReq{UserTicket: blob, ChannelID: channelID, ExpiringTicket: expiring}
	chal, err := svc.Invoke(c.traced(j, c.measured(cmKey, feedback.Switch1)), cm, wire.SvcSwitch1, req, wire.DecodeSwitchChallenge)
	if err != nil {
		return nil, fmt.Errorf("switch1: %w", err)
	}
	j.enter("switch2")
	fin := &wire.SwitchFinish{
		UserTicket: blob, ChannelID: channelID, ExpiringTicket: expiring,
		Token: chal.Token, Nonce: chal.Nonce, Sig: c.cfg.Tickets.Crypto().Sign(c.keys, chal.Nonce),
	}
	resp, err := svc.Invoke(c.traced(j, c.measured(cmKey, feedback.Switch2)), cm, wire.SvcSwitch2, fin, wire.DecodeSwitchResp)
	if err != nil {
		return nil, fmt.Errorf("switch2: %w", err)
	}
	return resp, nil
}

// Watch switches to a channel: obtain the Channel Ticket and peer list,
// join the overlay, and start the renewal loop. Transparent to the user
// beyond picking the channel (§II "Viewing Experience"). Must run in a
// simulated goroutine.
func (c *Client) Watch(channelID string) error {
	j := c.beginJourney("switch")
	err := c.watch(j, channelID)
	j.finish(err)
	return err
}

// watch is the Watch body with its journey threaded through.
func (c *Client) watch(j *journey, channelID string) error {
	c.mu.Lock()
	ch := c.channels[channelID]
	loggedIn := c.userTicketBlob != nil
	c.mu.Unlock()
	if !loggedIn {
		return ErrNotLoggedIn
	}
	if ch == nil {
		return ErrNoChannel
	}
	cmAddr, cmKey, err := c.channelManagerFor(ch)
	if err != nil {
		return err
	}

	// Leaving any previous channel: "a client can logically be a member
	// of only one P2P network at any one time" (§III).
	c.StopWatching()

	resp, err := c.switchProtocol(j, cmAddr, cmKey, channelID, nil)
	if err != nil {
		return err
	}
	ct, err := c.cfg.Tickets.VerifyChannel(resp.ChannelTicket, cmKey)
	if err != nil {
		return fmt.Errorf("channel ticket: %w", err)
	}

	c.mu.Lock()
	c.generation++
	gen := c.generation
	c.watchingID = channelID
	c.chanTicket = ct
	c.chanBlob = resp.ChannelTicket
	c.lastPeers = resp.Peers
	c.chanMgrAddr = cmAddr
	c.chanMgrKey = cmKey
	c.stats.Switches++
	c.mu.Unlock()

	onPacket := c.cfg.OnFrame
	if onPacket != nil {
		user := onPacket
		onPacket = func(seq uint64, payload []byte) {
			sub := int(seq % uint64(c.cfg.Substreams))
			c.mu.Lock()
			now := c.node.Scheduler().Now()
			c.lastFrameAt = now
			if sub < len(c.lastFrameSub) {
				c.lastFrameSub[sub] = now
			}
			c.mu.Unlock()
			user(seq, payload)
		}
	}
	// A traced journey watches for its first-key and first-decrypt
	// milestones: the instants the viewer could first decrypt anything,
	// and first actually did — the tail of the channel-switch critical
	// path the manager rounds don't cover.
	onDecrypt := c.cfg.OnDecrypt
	var onKey func(keys.Serial)
	if j != nil {
		onKey = func(keys.Serial) { j.mark("first_key") }
		user := onDecrypt
		onDecrypt = func(serial keys.Serial, seq uint64, err error) {
			if err == nil {
				j.mark("first_decrypt")
			}
			if user != nil {
				user(serial, seq, err)
			}
		}
	}
	peer, err := p2p.NewPeer(c.node, p2p.Config{
		ChannelID:  channelID,
		ChanMgrKey: cmKey,
		Keys:       c.keys,
		Substreams: c.cfg.Substreams,
		RNG:        c.cfg.RNG,
		Arena:      c.cfg.Arena,
		Tickets:    c.cfg.Tickets,
		Capacity:   c.cfg.PeerCapacity,
		OnPacket:   onPacket,
		OnDecrypt:  onDecrypt,
		OnKey:      onKey,
		OnParentLoss: func(parent simnet.Addr, subs []uint8) {
			c.onParentLoss(gen, parent, subs)
		},
	})
	if err != nil {
		return err
	}
	// The peer runtime serves joins from OTHER viewers; give it the ring
	// so their traced joins get server spans on this side too.
	peer.Runtime().SetTrace(c.cfg.Trace)
	peer.SetTicket(resp.ChannelTicket)
	c.mu.Lock()
	c.peer = peer
	c.parentSubs = make(map[simnet.Addr][]uint8)
	c.mu.Unlock()

	j.enter("join")
	if err := c.joinParents(j, peer, resp.Peers); err != nil {
		return err
	}
	// Keep the Channel Ticket renewed so peering survives (§IV-D).
	c.node.Scheduler().Go(func() { c.renewLoop(gen) })
	// Self-healing: reset the channel if playback stalls (orphaned
	// subtree after churn).
	if c.cfg.OnFrame != nil {
		c.mu.Lock()
		c.watchedAt = c.node.Scheduler().Now()
		c.lastFrameAt = time.Time{}
		c.lastFrameSub = make([]time.Time, c.cfg.Substreams)
		c.mu.Unlock()
		c.node.Scheduler().Go(func() { c.stallWatchdog(gen, channelID) })
	}
	return nil
}

// stallWatchdog monitors frame arrival and performs a full channel reset
// (fresh Channel Ticket + peer list) when the signal stalls. Re-watching
// draws a new peer sample from the Channel Manager, reconnecting orphaned
// subtrees to the root's component.
func (c *Client) stallWatchdog(gen int, channelID string) {
	s := c.node.Scheduler()
	for {
		s.Sleep(stallTimeout/2 + c.jitter(stallTimeout/4))
		c.mu.Lock()
		if c.generation != gen {
			c.mu.Unlock()
			return
		}
		// A stall on ANY sub-stream counts: a half-starved viewer whose
		// remaining parent is healthy would otherwise never reset.
		oldest := c.lastFrameAt
		for _, t := range c.lastFrameSub {
			if t.Before(oldest) {
				oldest = t
			}
		}
		if oldest.IsZero() || c.watchedAt.After(oldest) {
			oldest = c.watchedAt
		}
		c.mu.Unlock()
		if s.Now().Sub(oldest) <= stallTimeout {
			continue
		}
		c.mu.Lock()
		c.stats.Stalls++
		c.mu.Unlock()
		_ = c.Watch(channelID) // full reset; spawns fresh loops under a new generation
		return
	}
}

// joinMeasured performs one JOIN round, recording its latency (§VI) and
// carrying the journey's stage context when traced.
func (c *Client) joinMeasured(j *journey, peer *p2p.Peer, cand simnet.Addr, want []uint8) error {
	s := c.node.Scheduler()
	start := s.Now()
	err := peer.JoinParentTraced(j.ctx(), cand, want, c.cfg.RPCTimeout)
	c.flog.Record(feedback.Join, start, s.Now().Sub(start), err == nil)
	return err
}

// joinParents splits the sub-streams across up to cfg.Parents parents
// drawn from the peer list.
func (c *Client) joinParents(j *journey, peer *p2p.Peer, peerList []string) error {
	subsets := splitSubstreams(c.cfg.Substreams, c.cfg.Parents)
	joined := 0
	idx := 0
	for _, want := range subsets {
		for idx < len(peerList) {
			cand := simnet.Addr(peerList[idx])
			idx++
			if cand == c.node.Addr() {
				continue
			}
			if err := c.joinMeasured(j, peer, cand, want); err == nil {
				c.recordJoin(cand, want)
				joined++
				break
			}
		}
	}
	if joined == 0 {
		return ErrNoPeers
	}
	// Not enough distinct parents: fall back to the first joined parent
	// carrying everything it can — re-request missing sub-streams from
	// already-joined parents.
	if joined < len(subsets) {
		c.mu.Lock()
		var first simnet.Addr
		for a := range c.parentSubs {
			if first == "" || a < first {
				first = a
			}
		}
		var missing []uint8
		for i := joined; i < len(subsets); i++ {
			missing = append(missing, subsets[i]...)
		}
		c.mu.Unlock()
		if first != "" && len(missing) > 0 {
			if err := c.joinMeasured(j, c.peerOf(), first, missing); err == nil {
				c.recordJoin(first, missing)
			}
		}
	}
	return nil
}

func (c *Client) peerOf() *p2p.Peer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peer
}

func (c *Client) recordJoin(parent simnet.Addr, subs []uint8) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.parentSubs == nil {
		// StopWatching raced a rejoin that was already in flight; the
		// overlay peer has been discarded, nothing to track.
		return
	}
	c.parentSubs[parent] = append(c.parentSubs[parent], subs...)
}

// splitSubstreams deals n sub-streams round-robin into k hands.
func splitSubstreams(n, k int) [][]uint8 {
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([][]uint8, k)
	for i := 0; i < n; i++ {
		out[i%k] = append(out[i%k], uint8(i))
	}
	return out
}

// onParentLoss re-joins the lost sub-streams through another peer.
func (c *Client) onParentLoss(gen int, parent simnet.Addr, subs []uint8) {
	c.node.Scheduler().Go(func() {
		c.mu.Lock()
		if c.generation != gen || c.peer == nil {
			c.mu.Unlock()
			return
		}
		peer := c.peer
		candidates := append([]string(nil), c.lastPeers...)
		delete(c.parentSubs, parent)
		c.stats.Rejoins++
		c.mu.Unlock()
		for _, cand := range candidates {
			a := simnet.Addr(cand)
			if a == parent || a == c.node.Addr() {
				continue
			}
			if err := c.joinMeasured(nil, peer, a, subs); err == nil {
				c.recordJoin(a, subs)
				return
			}
		}
	})
}

// renewLoop keeps the Channel Ticket fresh: shortly before expiry it runs
// the renewal variant of the switch protocol and presents the renewed
// ticket to its parents (§IV-D).
func (c *Client) renewLoop(gen int) {
	s := c.node.Scheduler()
	for {
		c.mu.Lock()
		if c.generation != gen || c.chanTicket == nil {
			c.mu.Unlock()
			return
		}
		expiry := c.chanTicket.Expiry
		cm := c.chanMgrAddr
		cmKey := c.chanMgrKey
		blob := c.chanBlob
		id := c.watchingID
		c.mu.Unlock()

		wait := expiry.Sub(s.Now()) - renewMargin
		// Jitter renewals by up to half the margin: clients that joined
		// together during a correlated arrival burst would otherwise
		// renew in lockstep forever, hammering the Channel Managers with
		// a synchronized storm every ticket lifetime.
		wait -= c.jitter(renewMargin / 2)
		if wait > 0 {
			s.Sleep(wait)
		}
		c.mu.Lock()
		stale := c.generation != gen
		userExpiry := time.Time{}
		if c.userTicket != nil {
			userExpiry = c.userTicket.Expiry
		}
		c.mu.Unlock()
		if stale {
			return
		}

		// §IV-C caps the Channel Ticket at the User Ticket's remaining
		// life, so a soon-expiring User Ticket would pin every renewal
		// to the same expiry (a renewal busy-loop). Renew the User
		// Ticket first — "Channel and User Tickets must be renewed in
		// time" (§IV-C).
		if !userExpiry.IsZero() && userExpiry.Sub(s.Now()) < 3*renewMargin {
			if err := c.login(nil); err != nil {
				c.mu.Lock()
				c.stats.RenewalsFailed++
				c.mu.Unlock()
				return
			}
			c.mu.Lock()
			blob = c.chanBlob // unchanged, but re-read for consistency
			c.mu.Unlock()
		}

		resp, err := c.switchProtocol(nil, cm, cmKey, id, blob)
		if err != nil {
			c.mu.Lock()
			c.stats.RenewalsFailed++
			c.mu.Unlock()
			return // peering will be severed at expiry (§IV-D)
		}
		ct, err := c.cfg.Tickets.VerifyChannel(resp.ChannelTicket, cmKey)
		if err != nil {
			c.mu.Lock()
			c.stats.RenewalsFailed++
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		if c.generation != gen {
			c.mu.Unlock()
			return
		}
		c.chanTicket = ct
		c.chanBlob = resp.ChannelTicket
		if len(resp.Peers) > 0 {
			c.lastPeers = resp.Peers
		}
		peer := c.peer
		c.stats.Renewals++
		c.mu.Unlock()
		if peer != nil {
			peer.PresentRenewal(resp.ChannelTicket)
		}
		// Defensive floor: if the renewed expiry barely advanced, pace
		// the loop rather than spinning against a pinned expiry.
		if ct.Expiry.Sub(expiry) < renewMargin {
			s.Sleep(renewMargin / 2)
		}
	}
}

// jitter draws a uniform duration in [0, max) from the client's RNG.
func (c *Client) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	var b [2]byte
	rng := c.cfg.RNG
	if rng == nil {
		n, err := cryptoutil.NewNonce(nil)
		if err != nil {
			return 0
		}
		b[0], b[1] = n[0], n[1]
	} else if _, err := io.ReadFull(rng, b[:]); err != nil {
		return 0
	}
	frac := float64(uint16(b[0])<<8|uint16(b[1])) / 65536.0
	return time.Duration(frac * float64(max))
}

// RenewUserTicket re-runs the login protocol to refresh the User Ticket
// before it (or any listed attribute) expires (§IV-B).
func (c *Client) RenewUserTicket() error {
	return c.Login()
}

// StopWatching leaves the current channel's overlay and stops renewals.
func (c *Client) StopWatching() {
	c.mu.Lock()
	c.generation++
	peer := c.peer
	c.peer = nil
	c.watchingID = ""
	c.chanTicket = nil
	c.chanBlob = nil
	c.parentSubs = nil
	c.mu.Unlock()
	if peer != nil {
		peer.Leave()
	}
}

// Peer exposes the current overlay peer (nil when not watching).
func (c *Client) Peer() *p2p.Peer { return c.peerOf() }

// DecryptHistoryFrame opens a sealed history frame with the client's key
// ring. Fails with keys.ErrUnknownSerial when the frame's key iteration
// has already slid out of the ring window (seek deeper than retained
// keys) and with an authentication error on tampered content.
func (c *Client) DecryptHistoryFrame(f wire.HistoryFrame) ([]byte, error) {
	peer := c.peerOf()
	if peer == nil {
		return nil, ErrNoPeers
	}
	return peer.OpenHistory(f)
}
