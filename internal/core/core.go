// Package core assembles the complete DRM deployment of Fig. 1: Account
// Manager, a User Manager farm behind one address, Channel Manager farms
// per Channel Listing Partition, the Channel Policy Manager, the
// Redirection Manager, and per-channel Channel Servers rooting the P2P
// overlays — all running on the discrete-event simulated network.
//
// This is the top-level entry point: examples, the evaluation harness,
// and the benchmarks all build a core.System and attach clients to it.
package core

import (
	"fmt"
	"time"

	"p2pdrm/internal/accountmgr"
	"p2pdrm/internal/attr"
	"p2pdrm/internal/channelmgr"
	"p2pdrm/internal/chserver"
	"p2pdrm/internal/client"
	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/epg"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/keys"
	"p2pdrm/internal/obs"
	"p2pdrm/internal/p2p"
	"p2pdrm/internal/policy"
	"p2pdrm/internal/policymgr"
	"p2pdrm/internal/redirect"
	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/usermgr"
	"p2pdrm/internal/wire"
)

// Well-known infrastructure addresses.
const (
	addrUserMgr   = simnet.Addr("um.provider")
	addrPolicyMgr = simnet.Addr("pm.provider")
	addrRedirect  = simnet.Addr("rm.provider")
)

// addrUserMgrDomain names a domain's User Manager VIP ("" = default).
func addrUserMgrDomain(domain string) simnet.Addr {
	if domain == "" {
		return addrUserMgr
	}
	return simnet.Addr("um." + domain + ".provider")
}

func domainSuffix(domain string) string {
	if domain == "" {
		return ""
	}
	return "." + domain
}

// AddrChannelMgr names a partition's Channel Manager VIP.
func AddrChannelMgr(partition string) simnet.Addr {
	return simnet.Addr("cm." + partition + ".provider")
}

// AddrChannelRoot names a channel's Channel Server.
func AddrChannelRoot(channelID string) simnet.Addr {
	return simnet.Addr("root." + channelID)
}

// CapacityModel describes a manager backend's queueing behaviour: Workers
// parallel servers, each holding a request for a sampled service time
// (an M/G/c queue).
type CapacityModel struct {
	Workers     int
	ServiceTime func() time.Duration
}

// Options configures a System.
type Options struct {
	// Seed drives all deterministic randomness.
	Seed int64
	// Start is the simulation epoch. Default 2008-06-23 (the paper's
	// measurement week).
	Start time.Time
	// Scheduler, when set, hosts the deployment on an existing scheduler
	// instead of creating one — the megascale run passes its sharded
	// engine's control scheduler here so the real overlay rides the
	// control phase. Must have been created with the same Start and Seed
	// semantics the caller wants; Start is ignored when set.
	Scheduler *sim.Scheduler
	// Latency is the network model. Default geo.LatencyModel(15ms, 60ms,
	// 20ms).
	Latency simnet.LatencyModel
	// UserMgrFarm is the number of User Manager backends behind the VIP.
	// The paper's deployment used two (§VI). Default 2.
	UserMgrFarm int
	// UserMgrShard, when Enabled, deploys the User Manager farm as a
	// consistent-hash sharded farm instead of a plain VIP pool: the
	// Redirection Manager routes each account to its owning member,
	// per-account hot state is manager-local, and members can be added
	// or removed mid-run (System.AddUserMgrMember). The VIP still exists
	// beside the keyed routing, so legacy VIP traffic keeps working.
	// Requires the single anonymous domain (no Domains).
	UserMgrShard ShardOptions
	// Domains lists Authentication Domains (§V): each gets its own User
	// Manager farm behind its own address; the Redirection Manager routes
	// each user to the domain it was assigned to. Empty means a single
	// anonymous domain at addrUserMgr.
	Domains []string
	// Partitions lists Channel Listing Partition names. The paper's
	// deployment used two partitions served by four Channel Managers
	// (§VI). Default {"p1", "p2"}.
	Partitions []string
	// ChannelMgrFarm is the per-partition farm size. Default 2 (so the
	// default deployment is 4 Channel Managers over 2 partitions, §VI).
	ChannelMgrFarm int
	// UserMgrCapacity / ChannelMgrCapacity queue requests at the manager
	// backends; zero Workers means infinite capacity.
	UserMgrCapacity    CapacityModel
	ChannelMgrCapacity CapacityModel
	// UserTicketLifetime (default 10m), ChannelTicketLifetime (default
	// 5m) and RenewWindow (default 1m) follow the paper's rules.
	UserTicketLifetime    time.Duration
	ChannelTicketLifetime time.Duration
	RenewWindow           time.Duration
	// ClientImage is the golden client binary for attestation.
	ClientImage []byte
	// MinVersion is the minimum admitted client version.
	MinVersion uint32
	// RekeyInterval rotates content keys (default 1m, §IV-E).
	RekeyInterval time.Duration
	// PacketInterval paces content production (default 1s for
	// simulation economy).
	PacketInterval time.Duration
	// Substreams for peer-division multiplexing (default 4).
	Substreams int
	// RootMaxChildren bounds direct fan-out at Channel Servers (default
	// 32).
	RootMaxChildren int
	// HistoryWindow retains this many recent frames at each Channel
	// Server root for time-shifted viewers (0 = no retention).
	HistoryWindow int
	// OnRekey observes every key iteration each channel's production
	// switches onto (conformance harness hook; nil = unobserved).
	OnRekey func(channel string, serial keys.Serial)
	// RootRegion, when nonzero, hosts Channel Servers inside that
	// geographic region (a broadcaster's servers live in its DMA), so
	// client-to-root latency matches client-to-peer latency. Zero keeps
	// roots at infrastructure addresses (inter-region latency).
	RootRegion int
	// PacketLoss is the network loss probability.
	PacketLoss float64
	// SecureTransport makes clients use the SSL-like sealed transport
	// for all infrastructure communication (§IV-G1).
	SecureTransport bool
	// Trace, when set, arms causal tracing on every service runtime in
	// the deployment (managers, channel roots, late-added farm members)
	// and becomes the default span ring for clients built through
	// NewClient. Nil disables tracing at zero cost: no envelope is
	// written, no span is emitted, and timing/RNG draws are identical.
	Trace *obs.Trace
}

func (o *Options) fill() {
	if o.Start.IsZero() {
		o.Start = time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)
	}
	if o.Latency == nil {
		o.Latency = geo.LatencyModel(15*time.Millisecond, 60*time.Millisecond, 20*time.Millisecond)
	}
	if o.UserMgrFarm <= 0 {
		o.UserMgrFarm = 2
	}
	if len(o.Partitions) == 0 {
		o.Partitions = []string{"p1", "p2"}
	}
	if o.ChannelMgrFarm <= 0 {
		o.ChannelMgrFarm = 2
	}
	if o.UserTicketLifetime <= 0 {
		o.UserTicketLifetime = 10 * time.Minute
	}
	if o.ChannelTicketLifetime <= 0 {
		o.ChannelTicketLifetime = 5 * time.Minute
	}
	if o.RenewWindow <= 0 {
		o.RenewWindow = time.Minute
	}
	if len(o.ClientImage) == 0 {
		o.ClientImage = defaultClientImage()
	}
	if o.RekeyInterval <= 0 {
		o.RekeyInterval = time.Minute
	}
	if o.PacketInterval <= 0 {
		o.PacketInterval = time.Second
	}
	if o.Substreams <= 0 {
		o.Substreams = 4
	}
	if o.RootMaxChildren <= 0 {
		o.RootMaxChildren = 32
	}
}

// ShardOptions configures the sharded User Manager deployment.
type ShardOptions struct {
	// Enabled switches the farm from VIP round-robin to account-hash
	// sharding.
	Enabled bool
	// VNodes per member on the ring (0 = the svc default, 64).
	VNodes int
	// GraceWindow is how long after a reshard members still serve keys
	// they owned under the previous epoch (0 = the farm default, 30s).
	GraceWindow time.Duration
	// LoginHighWater arms load shedding on the login endpoints: above
	// this many admitted-but-unfinished requests per member, new
	// arrivals are refused with wire.CodeOverloaded (0 disables).
	LoginHighWater int
	// LoginRateLimit / RateWindow / AbuseThreshold / LockoutFor are the
	// per-account rate and abuse controls (see usermgr.Config); zero
	// values disable or take the usermgr defaults.
	LoginRateLimit int
	RateWindow     time.Duration
	AbuseThreshold int
	LockoutFor     time.Duration
}

// defaultClientImage returns the golden client binary image used for the
// rudimentary remote attestation.
func defaultClientImage() []byte {
	img := make([]byte, 4096)
	for i := range img {
		img[i] = byte(i*31 + 7)
	}
	return img
}

// System is a running deployment.
type System struct {
	Opts      Options
	Sched     *sim.Scheduler
	Net       *simnet.Network
	Accounts  *accountmgr.Manager
	UserMgrs  []*usermgr.Manager
	ChanMgrs  map[string][]*channelmgr.Manager
	PolicyMgr *policymgr.Manager
	Redirect  *redirect.Manager
	Servers   map[string]*chserver.Server
	// UMShard is the sharded User Manager farm (nil unless
	// Options.UserMgrShard.Enabled).
	UMShard *svc.ShardedFarm[*usermgr.Manager]
	// Arena is the deployment-wide overlay arena: every root and client
	// peer files its child/dedup state in these shared slabs. All peers
	// live on the one scheduler, so sharing is safe.
	Arena *p2p.Arena

	rng       *cryptoutil.SeededReader
	umKeys    *cryptoutil.KeyPair
	pmKeys    *cryptoutil.KeyPair
	rmKeys    *cryptoutil.KeyPair
	cmKeys    map[string]*cryptoutil.KeyPair
	partIdx   int
	umBackend []simnet.Addr
	cmBackend []simnet.Addr
	mgrNodes  []*simnet.Node
	// Sharded-farm scale-out state: the member build closure reused by
	// AddUserMgrMember, and the next member index for address naming.
	umBuild func(node *simnet.Node, view *svc.ShardView) (*usermgr.Manager, error)
	umNext  int
}

// NewSystem builds and wires a full deployment.
func NewSystem(opts Options) (*System, error) {
	opts.fill()
	sched := opts.Scheduler
	if sched == nil {
		sched = sim.New(opts.Start, opts.Seed)
	}
	netOpts := []simnet.Option{simnet.WithLatency(opts.Latency)}
	if opts.PacketLoss > 0 {
		netOpts = append(netOpts, simnet.WithLoss(opts.PacketLoss))
	}
	net := simnet.New(sched, netOpts...)
	rng := cryptoutil.NewSeededReader(opts.Seed + 1)

	sys := &System{
		Opts:     opts,
		Sched:    sched,
		Net:      net,
		Accounts: accountmgr.New(),
		ChanMgrs: make(map[string][]*channelmgr.Manager),
		Servers:  make(map[string]*chserver.Server),
		Arena:    p2p.NewArena(1 << 16),
		rng:      rng,
		cmKeys:   make(map[string]*cryptoutil.KeyPair),
	}

	// --- User Manager farms (§V: one logical manager per Authentication
	// Domain, each implemented across a farm of backends). All domains
	// share the provider's key pair so Channel Managers verify User
	// Tickets with a single key.
	umKeys, err := cryptoutil.NewKeyPair(rng)
	if err != nil {
		return nil, err
	}
	sys.umKeys = umKeys
	if opts.UserMgrShard.Enabled {
		// The sharded deployment replaces the VIP-pool farms.
		if len(opts.Domains) > 0 {
			return nil, fmt.Errorf("core: UserMgrShard requires the single anonymous domain")
		}
		if err := sys.deployShardedUserMgrs(net); err != nil {
			return nil, err
		}
	} else {
		for di, domain := range append([]string{""}, opts.Domains...) {
			if di > 0 && domain == "" {
				return nil, fmt.Errorf("core: empty domain name")
			}
			if di == 0 && len(opts.Domains) > 0 {
				continue // explicit domains replace the anonymous one
			}
			umCfg := sys.userMgrConfig(domain)
			suffix := domainSuffix(domain)
			mgrs, nodes, err := svc.DeployFarm(net, addrUserMgrDomain(domain), opts.UserMgrFarm,
				func(i int) simnet.Addr {
					return simnet.Addr(fmt.Sprintf("um%d%s.provider", i+1, suffix))
				},
				func(node *simnet.Node) (*usermgr.Manager, error) {
					applyCapacity(node, opts.UserMgrCapacity)
					return usermgr.New(node, umCfg)
				})
			if err != nil {
				return nil, err
			}
			sys.UserMgrs = append(sys.UserMgrs, mgrs...)
			for _, node := range nodes {
				sys.umBackend = append(sys.umBackend, node.Addr())
				sys.mgrNodes = append(sys.mgrNodes, node)
			}
		}
	}

	// --- Channel Manager farms, one per partition (§V).
	for _, part := range opts.Partitions {
		cmKeys, err := cryptoutil.NewKeyPair(rng)
		if err != nil {
			return nil, err
		}
		sys.cmKeys[part] = cmKeys
		cfg := channelmgr.Config{
			Keys:           cmKeys,
			UserMgrKey:     umKeys.Public(),
			TokenSecret:    []byte("cm-farm-secret-" + part),
			TicketLifetime: opts.ChannelTicketLifetime,
			RenewWindow:    opts.RenewWindow,
			Partition:      part,
			Log:            channelmgr.NewViewLog(0),
			Dir:            channelmgr.NewDirectory(opts.Seed + int64(len(part))),
			RNG:            rng,
		}
		partition := part
		mgrs, nodes, err := svc.DeployFarm(net, AddrChannelMgr(part), opts.ChannelMgrFarm,
			func(i int) simnet.Addr {
				return simnet.Addr(fmt.Sprintf("cm%d.%s.provider", i+1, partition))
			},
			func(node *simnet.Node) (*channelmgr.Manager, error) {
				applyCapacity(node, opts.ChannelMgrCapacity)
				return channelmgr.New(node, cfg)
			})
		if err != nil {
			return nil, err
		}
		sys.ChanMgrs[part] = append(sys.ChanMgrs[part], mgrs...)
		for _, node := range nodes {
			sys.cmBackend = append(sys.cmBackend, node.Addr())
			sys.mgrNodes = append(sys.mgrNodes, node)
		}
	}

	// --- Channel Policy Manager (one per provider network, §V).
	pmKeys, err := cryptoutil.NewKeyPair(rng)
	if err != nil {
		return nil, err
	}
	sys.pmKeys = pmKeys
	pmNode := net.NewNode(addrPolicyMgr)
	pm, err := policymgr.New(pmNode, policymgr.Config{
		Keys:        pmKeys,
		RNG:         rng,
		UserMgrKey:  umKeys.Public(),
		UserMgrs:    sys.umBackend,
		ChannelMgrs: sys.cmBackend,
	})
	if err != nil {
		return nil, err
	}
	sys.PolicyMgr = pm

	// --- Redirection Manager (built into clients, §V).
	rmNode := net.NewNode(addrRedirect)
	defaultUM := addrUserMgr
	if len(opts.Domains) > 0 {
		defaultUM = addrUserMgrDomain(opts.Domains[0])
	}
	rmKeys, err := cryptoutil.NewKeyPair(rng)
	if err != nil {
		return nil, err
	}
	sys.rmKeys = rmKeys
	rmCfg := redirect.Config{
		Keys: rmKeys,
		RNG:  rng,
		Default: redirect.Assignment{
			UserMgr:    defaultUM,
			UserMgrKey: umKeys.Public().Encode(),
		},
		PolicyMgr:    addrPolicyMgr,
		PolicyMgrKey: pmKeys.Public().Encode(),
	}
	if sys.UMShard != nil {
		rmCfg.Shards = sys.UMShard
	}
	rm, err := redirect.New(rmNode, rmCfg)
	if err != nil {
		return nil, err
	}
	sys.Redirect = rm
	if opts.Trace != nil {
		for _, rt := range sys.runtimes() {
			rt.SetTrace(opts.Trace)
		}
	}
	return sys, nil
}

// userMgrConfig is what every User Manager backend of one Authentication
// Domain is built from, whichever way its farm is deployed. All domains
// share the provider's key pair.
func (s *System) userMgrConfig(domain string) usermgr.Config {
	return usermgr.Config{
		Accounts:       s.Accounts,
		Keys:           s.umKeys,
		TokenSecret:    []byte("um-farm-secret"),
		TicketLifetime: s.Opts.UserTicketLifetime,
		MinVersion:     s.Opts.MinVersion,
		ClientImage:    s.Opts.ClientImage,
		Domain:         domain,
		RNG:            s.rng,
	}
}

// deployShardedUserMgrs builds the User Manager farm as a sharded farm:
// same addresses and key draws as the VIP pool, plus the ring, the
// per-member shard views, and (optionally) login shedding. The VIP is
// still registered over the members so legacy VIP traffic works beside
// the keyed routing.
func (s *System) deployShardedUserMgrs(net *simnet.Network) error {
	opts := s.Opts
	so := opts.UserMgrShard
	umCfg := s.userMgrConfig("")
	umCfg.LoginRateLimit = so.LoginRateLimit
	umCfg.RateWindow = so.RateWindow
	umCfg.AbuseThreshold = so.AbuseThreshold
	umCfg.LockoutFor = so.LockoutFor
	s.umBuild = func(node *simnet.Node, view *svc.ShardView) (*usermgr.Manager, error) {
		applyCapacity(node, opts.UserMgrCapacity)
		cfg := umCfg
		cfg.Shard = view
		m, err := usermgr.New(node, cfg)
		if err != nil {
			return nil, err
		}
		if so.LoginHighWater > 0 {
			if err := m.Runtime().SetShedding(wire.SvcLogin1, so.LoginHighWater); err != nil {
				return nil, err
			}
			if err := m.Runtime().SetShedding(wire.SvcLogin2, so.LoginHighWater); err != nil {
				return nil, err
			}
		}
		return m, nil
	}
	farm, err := svc.DeployShardedFarm(net, opts.UserMgrFarm,
		svc.ShardFarmConfig{VNodes: so.VNodes, GraceWindow: so.GraceWindow},
		func(i int) simnet.Addr {
			return simnet.Addr(fmt.Sprintf("um%d.provider", i+1))
		},
		s.umBuild)
	if err != nil {
		return err
	}
	s.UMShard = farm
	s.umNext = opts.UserMgrFarm
	nodes := farm.Nodes()
	net.NewVIP(addrUserMgr, nodes...)
	s.UserMgrs = farm.Members()
	for _, node := range nodes {
		s.umBackend = append(s.umBackend, node.Addr())
		s.mgrNodes = append(s.mgrNodes, node)
	}
	return nil
}

// AddUserMgrMember grows the sharded User Manager farm by one member
// mid-run: the node deploys at the next um<N>.provider address, takes
// over its key-ranges through the farm's handoff, joins the VIP pool,
// and subscribes to Policy Manager pushes. Returns the new address.
func (s *System) AddUserMgrMember() (simnet.Addr, error) {
	if s.UMShard == nil {
		return "", fmt.Errorf("core: AddUserMgrMember requires Options.UserMgrShard.Enabled")
	}
	s.umNext++
	addr := simnet.Addr(fmt.Sprintf("um%d.provider", s.umNext))
	if err := s.UMShard.AddMember(addr, s.umBuild); err != nil {
		s.umNext--
		return "", err
	}
	m, _ := s.UMShard.Member(addr)
	if s.Opts.Trace != nil {
		m.Runtime().SetTrace(s.Opts.Trace)
	}
	node := m.Runtime().Node()
	s.Net.AddVIPBackend(addrUserMgr, node)
	s.PolicyMgr.AddUserMgr(addr)
	s.UserMgrs = append(s.UserMgrs, m)
	s.umBackend = append(s.umBackend, addr)
	s.mgrNodes = append(s.mgrNodes, node)
	return addr, nil
}

// RemoveUserMgrMember drains a member out of the sharded farm: its
// key-ranges hand off to the surviving members and it leaves the VIP
// pool, but the node stays up through the grace window so in-flight
// logins complete there.
func (s *System) RemoveUserMgrMember(addr simnet.Addr) error {
	if s.UMShard == nil {
		return fmt.Errorf("core: RemoveUserMgrMember requires Options.UserMgrShard.Enabled")
	}
	if err := s.UMShard.RemoveMember(addr); err != nil {
		return err
	}
	s.Net.RemoveVIPBackend(addrUserMgr, addr)
	for i, a := range s.umBackend {
		if a == addr {
			s.umBackend = append(s.umBackend[:i], s.umBackend[i+1:]...)
			break
		}
	}
	return nil
}

func applyCapacity(node *simnet.Node, c CapacityModel) {
	if c.Workers > 0 {
		node.SetCapacity(c.Workers, c.ServiceTime)
	}
}

// runtimes returns every service runtime in the deployment keyed by node
// address: manager farm backends, the policy and redirection managers,
// and the channel server roots.
func (s *System) runtimes() map[simnet.Addr]*svc.Runtime {
	out := make(map[simnet.Addr]*svc.Runtime)
	add := func(rt *svc.Runtime) { out[rt.Node().Addr()] = rt }
	for _, m := range s.UserMgrs {
		add(m.Runtime())
	}
	for _, farm := range s.ChanMgrs {
		for _, m := range farm {
			add(m.Runtime())
		}
	}
	add(s.PolicyMgr.Runtime())
	add(s.Redirect.Runtime())
	for _, srv := range s.Servers {
		add(srv.Runtime())
	}
	return out
}

// EndpointTotals aggregates each endpoint's metrics across every runtime
// in the deployment (deployment-wide request/error/latency counters).
func (s *System) EndpointTotals() map[string]svc.Metrics {
	out := make(map[string]svc.Metrics)
	for _, rt := range s.runtimes() {
		rt.AddTo(out)
	}
	return out
}

// ManagerQueueHighWater returns the largest request-queue depth observed
// at any manager backend (0 without a capacity model).
func (s *System) ManagerQueueHighWater() int {
	max := 0
	for _, n := range s.mgrNodes {
		if _, hw := n.QueueDepth(); hw > max {
			max = hw
		}
	}
	return max
}

// UserMgrBackends lists the User Manager farm backend addresses across
// all domains. Fault-injection schedules target these: taking every
// backend down crashes the logical manager while its VIP black-holes.
func (s *System) UserMgrBackends() []simnet.Addr {
	return append([]simnet.Addr(nil), s.umBackend...)
}

// ChannelMgrBackends lists the Channel Manager farm backend addresses
// across all partitions.
func (s *System) ChannelMgrBackends() []simnet.Addr {
	return append([]simnet.Addr(nil), s.cmBackend...)
}

// InfraAddrs lists the client-facing infrastructure addresses — the
// Redirection and Policy Managers plus every manager VIP. Partition
// scenarios cut clients from these, not from individual backends,
// because that is what clients dial.
func (s *System) InfraAddrs() []simnet.Addr {
	out := []simnet.Addr{addrRedirect, addrPolicyMgr}
	if len(s.Opts.Domains) == 0 {
		out = append(out, addrUserMgr)
	}
	for _, d := range s.Opts.Domains {
		out = append(out, addrUserMgrDomain(d))
	}
	for _, part := range s.Opts.Partitions {
		out = append(out, AddrChannelMgr(part))
	}
	return out
}

// RedirectKey returns the Redirection Manager's public key (built into
// clients).
func (s *System) RedirectKey() cryptoutil.PublicKey { return s.rmKeys.Public() }

// UserMgrKey returns the User Manager farm's public key.
func (s *System) UserMgrKey() cryptoutil.PublicKey { return s.umKeys.Public() }

// nextPartition assigns channels round-robin over partitions ("each
// channel is assigned to one, and only one, partition", §V).
func (s *System) nextPartition() string {
	p := s.Opts.Partitions[s.partIdx%len(s.Opts.Partitions)]
	s.partIdx++
	return p
}

// DeployChannel registers a channel with the Channel Policy Manager,
// stamps its partition and Channel Manager coordinates, starts its
// Channel Server, and lists the server root in the partition's peer
// directory. The channel's Attrs/Rules must already be set.
func (s *System) DeployChannel(ch *policy.Channel) error {
	if ch.Partition == "" {
		ch.Partition = s.nextPartition()
	}
	kp, ok := s.cmKeys[ch.Partition]
	if !ok {
		return fmt.Errorf("core: unknown partition %q", ch.Partition)
	}
	ch.MgrAddr = string(AddrChannelMgr(ch.Partition))
	ch.MgrKey = kp.Public().Encode()

	srvKeys, err := cryptoutil.NewKeyPair(s.rng)
	if err != nil {
		return err
	}
	rootAddr := AddrChannelRoot(ch.ID)
	if s.Opts.RootRegion > 0 {
		rootAddr = geo.Addr(s.Opts.RootRegion, 900, 1+len(s.Servers))
	}
	node := s.Net.NewNode(rootAddr)
	var onRekey func(keys.Serial)
	if s.Opts.OnRekey != nil {
		id, hook := ch.ID, s.Opts.OnRekey
		onRekey = func(serial keys.Serial) { hook(id, serial) }
	}
	srv, err := chserver.New(node, chserver.Config{
		ChannelID:      ch.ID,
		ChanMgrKey:     kp.Public(),
		Keys:           srvKeys,
		RekeyInterval:  s.Opts.RekeyInterval,
		PacketInterval: s.Opts.PacketInterval,
		Substreams:     s.Opts.Substreams,
		MaxChildren:    s.Opts.RootMaxChildren,
		RNG:            s.rng,
		Arena:          s.Arena,
		HistoryWindow:  s.Opts.HistoryWindow,
		OnRekey:        onRekey,
	})
	if err != nil {
		return err
	}
	s.Servers[ch.ID] = srv
	if s.Opts.Trace != nil {
		srv.Runtime().SetTrace(s.Opts.Trace)
	}

	for _, cm := range s.ChanMgrs[ch.Partition] {
		cm.Directory().RegisterPermanent(ch.ID, node.Addr())
	}
	if err := s.PolicyMgr.AddChannel(ch); err != nil {
		return err
	}
	srv.Start()
	return nil
}

// RemoveChannel stops a channel's server and withdraws it from the
// lineup.
func (s *System) RemoveChannel(id string) error {
	if srv, ok := s.Servers[id]; ok {
		srv.Stop()
		delete(s.Servers, id)
	}
	return s.PolicyMgr.RemoveChannel(id)
}

// RegisterUser creates an account (the out-of-band web signup). With
// explicit Domains configured, the user lands in the first one.
func (s *System) RegisterUser(email, password string) (accountmgr.Account, error) {
	if len(s.Opts.Domains) > 0 {
		return s.registerUserInDomain(email, password, s.Opts.Domains[0])
	}
	return s.Accounts.Register(email, password)
}

// registerUserInDomain creates an account assigned to an Authentication
// Domain (§V): the account is tagged, and the Redirection Manager is
// taught to route the user to that domain's User Manager farm.
func (s *System) registerUserInDomain(email, password, domain string) (accountmgr.Account, error) {
	found := false
	for _, d := range s.Opts.Domains {
		if d == domain {
			found = true
			break
		}
	}
	if !found {
		return accountmgr.Account{}, fmt.Errorf("core: unknown domain %q", domain)
	}
	acct, err := s.Accounts.Register(email, password)
	if err != nil {
		return acct, err
	}
	if err := s.Accounts.SetDomain(email, domain); err != nil {
		return acct, err
	}
	s.Redirect.Assign(email, redirect.Assignment{
		UserMgr:    addrUserMgrDomain(domain),
		UserMgrKey: s.umKeys.Public().Encode(),
	})
	acct.Domain = domain
	return acct, nil
}

// NewClient creates a client node at addr for a registered user.
func (s *System) NewClient(email, password string, addr simnet.Addr, mut func(*client.Config)) (*client.Client, error) {
	cfg := client.Config{
		Email:           email,
		Password:        password,
		RedirectAddr:    addrRedirect,
		Version:         s.Opts.MinVersion,
		Image:           s.Opts.ClientImage,
		Substreams:      s.Opts.Substreams,
		RNG:             s.rng,
		SecureTransport: s.Opts.SecureTransport,
		RedirectKey:     s.rmKeys.Public().Encode(),
		Arena:           s.Arena,
		Trace:           s.Opts.Trace,
	}
	if cfg.Version == 0 {
		cfg.Version = 1
	}
	if mut != nil {
		mut(&cfg)
	}
	return client.New(s.Net.NewNode(addr), cfg)
}

// StopAll halts every channel server (ends content production loops).
func (s *System) StopAll() {
	for _, srv := range s.Servers {
		srv.Stop()
	}
}

// DeploySchedule validates a program schedule against the §IV-C
// lead-time rule and compiles its per-program rights (blackouts, PPV
// gates) onto the channel. The channel's base regions are read from its
// existing Region attributes so PPV accept rules stay region-bound.
func (s *System) DeploySchedule(channelID string, sched *epg.Schedule) error {
	if err := sched.Validate(s.Sched.Now(), s.Opts.UserTicketLifetime); err != nil {
		return err
	}
	return s.PolicyMgr.UpdateChannel(channelID, func(ch *policy.Channel) error {
		var regions []string
		for _, a := range ch.Attrs {
			if a.Name == attr.NameRegion && a.Value != attr.Any {
				regions = append(regions, string(a.Value))
			}
		}
		attrs, rules := sched.Compile(s.Sched.Now(), regions...)
		ch.Attrs = append(ch.Attrs, attrs...)
		ch.Rules = append(ch.Rules, rules...)
		return nil
	})
}

// DeployBlackout schedules a blackout window on a channel (§IV-A). The
// call must happen at least one User Ticket lifetime before start to
// honour the deployment lead-time rule (§IV-C).
func (s *System) DeployBlackout(channelID string, start, end time.Time) error {
	return s.PolicyMgr.SetBlackout(channelID, start, end)
}

// FreeToView builds a channel viewable in the given regions without
// subscription.
func FreeToView(id, name string, regions ...string) *policy.Channel {
	ch := &policy.Channel{ID: id, Name: name}
	for _, r := range regions {
		ch.Attrs = append(ch.Attrs, attr.Attribute{Name: attr.NameRegion, Value: attr.Value(r)})
		ch.Rules = append(ch.Rules, policy.Rule{
			Priority: 50,
			Conds:    []policy.Cond{{Name: attr.NameRegion, Value: attr.Value(r)}},
			Effect:   policy.Accept,
		})
	}
	return ch
}

// PPVChannel builds a pay-per-view event channel (§II: "purchasing of
// pay-per-view programs ... take[s] place out-of-band"): access requires
// a purchase of the event package, and the channel's event attribute is
// only valid during [start, end) — a purchase cannot be used early, and
// lapses with the event.
func PPVChannel(id, name, event string, start, end time.Time, regions ...string) *policy.Channel {
	ch := &policy.Channel{ID: id, Name: name}
	for _, r := range regions {
		ch.Attrs = append(ch.Attrs, attr.Attribute{Name: attr.NameRegion, Value: attr.Value(r)})
		ch.Rules = append(ch.Rules, policy.Rule{
			Priority: 50,
			Conds: []policy.Cond{
				{Name: attr.NameRegion, Value: attr.Value(r)},
				{Name: attr.NameSubscription, Value: attr.Value(event)},
			},
			Effect: policy.Accept,
		})
	}
	ch.Attrs = append(ch.Attrs, attr.Attribute{
		Name: attr.NameSubscription, Value: attr.Value(event),
		STime: start, ETime: end,
	})
	return ch
}

// PurchasePPV records an out-of-band pay-per-view purchase: a
// subscription to the event package covering exactly the event window.
func (s *System) PurchasePPV(email, event string, start, end time.Time) error {
	return s.Accounts.Subscribe(email, event, start, end)
}

// SubscriptionChannel builds a channel requiring a subscription package
// within the given regions.
func SubscriptionChannel(id, name, pkg string, regions ...string) *policy.Channel {
	ch := &policy.Channel{ID: id, Name: name}
	for _, r := range regions {
		ch.Attrs = append(ch.Attrs, attr.Attribute{Name: attr.NameRegion, Value: attr.Value(r)})
		ch.Rules = append(ch.Rules, policy.Rule{
			Priority: 50,
			Conds: []policy.Cond{
				{Name: attr.NameRegion, Value: attr.Value(r)},
				{Name: attr.NameSubscription, Value: attr.Value(pkg)},
			},
			Effect: policy.Accept,
		})
	}
	ch.Attrs = append(ch.Attrs, attr.Attribute{Name: attr.NameSubscription, Value: attr.Value(pkg)})
	return ch
}
