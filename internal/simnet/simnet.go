// Package simnet is a simulated network built on the discrete-event
// scheduler in internal/sim.
//
// It provides addressed nodes, request/response RPC and one-way messages
// with configurable per-link latency and loss, virtual IPs (a farm of
// backend nodes behind one address, as the paper's User/Channel Manager
// farms share one network name and key pair), and a per-node capacity
// model (c workers with a sampled service time — an M/G/c queue) so
// saturation behaviour of the managers is faithfully reproduced.
package simnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"p2pdrm/internal/sim"
)

// Addr is a network address. The DRM layer treats it as the NetAddr user
// attribute; internal/geo derives region and AS number from its prefix.
type Addr string

// RemoteError is an application-level error returned by a remote handler.
// It travels back to the caller, unlike transport failures which surface
// as ErrRPCTimeout.
type RemoteError struct {
	Code string
	Msg  string
}

// Error implements the error interface.
func (e *RemoteError) Error() string { return fmt.Sprintf("remote %s: %s", e.Code, e.Msg) }

var (
	// ErrRPCTimeout indicates the request or its reply was lost, the
	// destination is down, or the destination never answered in time.
	ErrRPCTimeout = errors.New("simnet: rpc timeout")
	// ErrNoRoute indicates the destination address is not known to the
	// network at all.
	ErrNoRoute = errors.New("simnet: no route to host")
)

// Handler processes an incoming request on a node. from is the source
// address as observed by the transport (the DRM protocols match it against
// the NetAddr attribute inside tickets). The returned bytes form the
// reply; a returned *RemoteError travels back verbatim.
type Handler func(from Addr, payload []byte) ([]byte, error)

// LatencyModel samples one-way packet latency.
type LatencyModel interface {
	Sample(s *sim.Scheduler, src, dst Addr) time.Duration
}

// UniformLatency samples Base + U(0, Jitter).
type UniformLatency struct {
	Base   time.Duration
	Jitter time.Duration
}

// Sample implements LatencyModel.
func (l UniformLatency) Sample(s *sim.Scheduler, _, _ Addr) time.Duration {
	d := l.Base
	if l.Jitter > 0 {
		d += time.Duration(s.Float64() * float64(l.Jitter))
	}
	return d
}

// LatencyFunc adapts a function to a LatencyModel.
type LatencyFunc func(s *sim.Scheduler, src, dst Addr) time.Duration

// Sample implements LatencyModel.
func (f LatencyFunc) Sample(s *sim.Scheduler, src, dst Addr) time.Duration {
	return f(s, src, dst)
}

// Network holds the nodes and the link model.
//
// latency and lossRate are fixed at New; per-message state is held in
// atomics so the transmit fast path takes no lock unless links are cut.
type Network struct {
	sched *sim.Scheduler

	mu       sync.Mutex
	nodes    map[Addr]*Node
	vips     map[Addr]*vip
	cut      map[[2]Addr]bool
	linkLoss map[[2]Addr]float64 // per-link loss replacing lossRate

	latency  LatencyModel
	lossRate float64

	cutCount    atomic.Int64 // number of currently severed links
	ovCount     atomic.Int64 // number of links with a loss override
	sent        atomic.Int64
	delivered   atomic.Int64
	dropped     atomic.Int64
	droppedCut  atomic.Int64 // dropped: link severed (Cut/Partition)
	droppedLoss atomic.Int64 // dropped: random loss draw (global or per-link)

	freeMu   sync.Mutex
	freeMsgs []*sendMsg // recycled Send envelopes; grows to the peak in flight
}

type vip struct {
	backends []*Node
	next     int
}

// Option configures a Network.
type Option func(*Network)

// WithLatency sets the link latency model (default 20ms + U(0,20ms)).
func WithLatency(m LatencyModel) Option {
	return func(n *Network) { n.latency = m }
}

// WithLoss sets a global packet loss probability in [0,1).
func WithLoss(p float64) Option {
	return func(n *Network) { n.lossRate = p }
}

// New creates a Network on the given scheduler.
func New(s *sim.Scheduler, opts ...Option) *Network {
	n := &Network{
		sched:    s,
		nodes:    make(map[Addr]*Node),
		vips:     make(map[Addr]*vip),
		latency:  UniformLatency{Base: 20 * time.Millisecond, Jitter: 20 * time.Millisecond},
		cut:      make(map[[2]Addr]bool),
		linkLoss: make(map[[2]Addr]float64),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Scheduler returns the underlying scheduler.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// NetStats is a snapshot of the network's message counters. Dropped is
// broken down by fault cause: DroppedLinkCut counts packets that hit a
// severed link (Cut/Partition), DroppedLoss counts lost-in-transit
// draws (global loss rate or a per-link override). Messages swallowed
// because the destination node is down are not network drops — the
// caller's RPC simply times out — so Dropped == DroppedLinkCut +
// DroppedLoss.
type NetStats struct {
	Sent           int64
	Delivered      int64
	Dropped        int64
	DroppedLinkCut int64
	DroppedLoss    int64
}

// Stats reports the message counters since start.
func (n *Network) Stats() NetStats {
	return NetStats{
		Sent:           n.sent.Load(),
		Delivered:      n.delivered.Load(),
		Dropped:        n.dropped.Load(),
		DroppedLinkCut: n.droppedCut.Load(),
		DroppedLoss:    n.droppedLoss.Load(),
	}
}

// Cut severs (or restores) the bidirectional link between a and b.
func (n *Network) Cut(a, b Addr, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := linkKey(a, b)
	if n.cut[k] == down {
		return
	}
	n.cut[k] = down
	if down {
		n.cutCount.Add(1)
	} else {
		n.cutCount.Add(-1)
	}
}

func linkKey(a, b Addr) [2]Addr {
	if a > b {
		a, b = b, a
	}
	return [2]Addr{a, b}
}

// SetLinkLoss overrides the loss probability of the bidirectional link
// between a and b (a degraded last mile, a flaky transit path). A
// negative p clears the loss override. Links addressed through a VIP key
// on the VIP address — per-link faults hit the client↔farm path, not
// individual backends.
func (n *Network) SetLinkLoss(a, b Addr, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p < 0 {
		delete(n.linkLoss, linkKey(a, b))
	} else {
		n.linkLoss[linkKey(a, b)] = p
	}
	// The atomic guard keeps the transmit fast path lock-free while no
	// overrides exist.
	n.ovCount.Store(int64(len(n.linkLoss)))
}

// Partition severs (down=true) or heals every link between the two
// address sets — a transient network split.
func (n *Network) Partition(a, b []Addr, down bool) {
	for _, x := range a {
		for _, y := range b {
			if x != y {
				n.Cut(x, y, down)
			}
		}
	}
}

// SchedulePartition opens a partition between the two sets at time at
// and heals it healAfter later (0 leaves it open). Resolution happens at
// fire time off the deterministic scheduler: the same seed replays the
// same split.
func (n *Network) SchedulePartition(a, b []Addr, at time.Time, healAfter time.Duration) {
	aa := append([]Addr(nil), a...)
	bb := append([]Addr(nil), b...)
	n.sched.At(at, func() { n.Partition(aa, bb, true) })
	if healAfter > 0 {
		n.sched.At(at.Add(healAfter), func() { n.Partition(aa, bb, false) })
	}
}

// Node returns the node registered at addr (not VIPs).
func (n *Network) Node(addr Addr) (*Node, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[addr]
	return nd, ok
}

// ScheduleDown crashes the node at addr at time at and, when downFor > 0,
// restarts it downFor later. The address is resolved at fire time, so
// outages can be scheduled before the node exists. In-flight requests at
// the node vanish (callers time out), exactly as a process crash loses
// its request queue.
func (n *Network) ScheduleDown(addr Addr, at time.Time, downFor time.Duration) {
	n.sched.At(at, func() {
		if nd, ok := n.Node(addr); ok {
			nd.setUp(false)
		}
	})
	if downFor > 0 {
		n.sched.At(at.Add(downFor), func() {
			if nd, ok := n.Node(addr); ok {
				nd.setUp(true)
			}
		})
	}
}

// NewNode registers a node at addr. It panics if the address is taken
// (address planning is a programming-time decision in the simulations).
func (n *Network) NewNode(addr Addr) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[addr]; ok {
		panic(fmt.Sprintf("simnet: duplicate node address %q", addr))
	}
	if _, ok := n.vips[addr]; ok {
		panic(fmt.Sprintf("simnet: address %q already a VIP", addr))
	}
	node := &Node{
		net:      n,
		addr:     addr,
		handlers: make(map[string]Handler),
		up:       true,
	}
	n.nodes[addr] = node
	return node
}

// RemoveNode deregisters a node (e.g. a departed peer).
func (n *Network) RemoveNode(addr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, addr)
}

// NewVIP registers a virtual IP fronting a farm of backend nodes.
// Requests to the VIP are spread round-robin; this models the paper's
// "multiple instantiations sharing a single network name/address".
func (n *Network) NewVIP(addr Addr, backends ...*Node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[addr]; ok {
		panic(fmt.Sprintf("simnet: VIP address %q already a node", addr))
	}
	n.vips[addr] = &vip{backends: backends}
}

// AddVIPBackend grows a VIP's pool mid-run — a member deployed live into
// an existing farm. Unknown VIPs and duplicate backends are no-ops, so
// scale-out code can be idempotent.
func (n *Network) AddVIPBackend(vipAddr Addr, backend *Node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.vips[vipAddr]
	if !ok {
		return
	}
	for _, b := range v.backends {
		if b == backend {
			return
		}
	}
	v.backends = append(v.backends, backend)
}

// RemoveVIPBackend drains a backend out of a VIP's pool mid-run. The
// node itself stays registered and directly addressable, so requests
// already routed to it keep completing; only new VIP traffic stops.
func (n *Network) RemoveVIPBackend(vipAddr, backendAddr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.vips[vipAddr]
	if !ok {
		return
	}
	for i, b := range v.backends {
		if b.addr == backendAddr {
			v.backends = append(v.backends[:i], v.backends[i+1:]...)
			return
		}
	}
}

// resolve picks the concrete node behind addr (round-robin for VIPs).
// Down backends are skipped, modeling a health-checked load balancer; if
// every backend is down the next one is returned anyway (traffic black-
// holes there, as it would at a real VIP with no healthy pool).
func (n *Network) resolve(addr Addr) (*Node, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if node, ok := n.nodes[addr]; ok {
		return node, true
	}
	if v, ok := n.vips[addr]; ok && len(v.backends) > 0 {
		for i := 0; i < len(v.backends); i++ {
			node := v.backends[v.next%len(v.backends)]
			v.next++
			node.mu.Lock()
			up := node.up
			node.mu.Unlock()
			if up {
				return node, true
			}
		}
		node := v.backends[v.next%len(v.backends)]
		v.next++
		return node, true
	}
	return nil, false
}

// transmit decides whether a packet from src to dst survives the link and
// returns its latency. The common case (no cut links, no per-link
// overrides anywhere) never takes the network lock — and, just as
// important for the golden fingerprints, consumes exactly the same
// random draws as before fault injection existed.
func (n *Network) transmit(src, dst Addr) (time.Duration, bool) {
	n.sent.Add(1)
	if n.cutCount.Load() > 0 {
		n.mu.Lock()
		down := n.cut[linkKey(src, dst)]
		n.mu.Unlock()
		if down {
			n.dropped.Add(1)
			n.droppedCut.Add(1)
			return 0, false
		}
	}
	loss := n.lossRate
	if n.ovCount.Load() > 0 {
		n.mu.Lock()
		if p, ok := n.linkLoss[linkKey(src, dst)]; ok {
			loss = p
		}
		n.mu.Unlock()
	}
	if loss > 0 && n.sched.Float64() < loss {
		n.dropped.Add(1)
		n.droppedLoss.Add(1)
		return 0, false
	}
	return n.latency.Sample(n.sched, src, dst), true
}

// Node is an addressed endpoint: a manager backend, a channel server, or a
// client/peer.
type Node struct {
	net  *Network
	addr Addr

	mu       sync.Mutex
	handlers map[string]Handler
	up       bool

	// Capacity model: nil proc means infinite capacity with zero service
	// time (pure network latency).
	proc        *sim.Semaphore
	serviceTime func() time.Duration

	// Admission is consulted before a request enters the capacity queue;
	// a non-nil return is sent back immediately in place of the reply.
	// The raw payload is passed through so the check can read transport
	// envelopes (e.g. a trace context) without owning the decode.
	admission func(service string, from Addr, payload []byte) error
}

// Addr returns the node's address.
func (nd *Node) Addr() Addr { return nd.addr }

// Network returns the owning network.
func (nd *Node) Network() *Network { return nd.net }

// Scheduler returns the simulation scheduler.
func (nd *Node) Scheduler() *sim.Scheduler { return nd.net.sched }

// setUp marks the node reachable or unreachable.
func (nd *Node) setUp(up bool) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.up = up
}

// SetCapacity installs a queueing model: workers parallel servers, each
// request holding a server for a sampled service time before its handler
// runs. service must be safe for concurrent use.
func (nd *Node) SetCapacity(workers int, service func() time.Duration) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.proc = nd.net.sched.NewSemaphore(workers)
	nd.serviceTime = service
}

// QueueDepth reports the current and high-water request queue depth (zero
// without a capacity model).
func (nd *Node) QueueDepth() (cur, max int) {
	nd.mu.Lock()
	proc := nd.proc
	nd.mu.Unlock()
	if proc == nil {
		return 0, 0
	}
	return proc.QueueDepth()
}

// SetAdmission installs an admission check run when a request arrives,
// BEFORE it waits in the capacity queue. Rejecting here is what makes
// load shedding cheap: the request never occupies a worker or burns
// service time, and the caller gets the error after pure network delay
// instead of a queueing delay. The error travels to the caller exactly
// like a handler error; nil removes the check.
func (nd *Node) SetAdmission(check func(service string, from Addr, payload []byte) error) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.admission = check
}

// Handle registers a handler for a named service.
func (nd *Node) Handle(service string, h Handler) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.handlers[service] = h
}

// process runs one request through the node's capacity model and handler.
// It must run inside a simulated goroutine.
func (nd *Node) process(service string, from Addr, payload []byte) ([]byte, error) {
	nd.mu.Lock()
	h, ok := nd.handlers[service]
	up, proc, svc, admit := nd.up, nd.proc, nd.serviceTime, nd.admission
	nd.mu.Unlock()
	// Down nodes silently drop; unknown services answer with an error.
	if !up {
		return nil, errDropped
	}
	if !ok {
		return nil, &RemoteError{Code: "no_service", Msg: service}
	}
	if admit != nil {
		if err := admit(service, from, payload); err != nil {
			return nil, err
		}
	}
	if proc != nil {
		if err := proc.Acquire(0); err != nil {
			return nil, err
		}
		if svc != nil {
			nd.net.sched.Sleep(svc())
		}
		defer proc.Release()
	}
	return h(from, payload)
}

// errDropped is internal: the request should vanish (caller times out).
var errDropped = errors.New("simnet: dropped")

// rpcCall carries one in-flight RPC through arrival, service and reply.
// It is the only allocation the transport itself makes per Call: the
// delivery events and the caller's park come from the scheduler's pools,
// and the hops run as the top-level functions rpcArrive/rpcServe/rpcReply
// (dispatched via AfterArg/GoArg) so no hop captures a closure.
//
// The payload and response byte slices are passed by reference end to
// end — the simulated network never copies message bodies. A payload is
// immutable once sent: the sender must not write to it again, and a
// handler must not write to it either but may alias it past the call
// (a relay forwards the frame it received; the time-shift history keeps
// packets that point into it).
type rpcCall struct {
	nd      *Node
	target  *Node
	dst     Addr
	service string
	req     []byte
	w       sim.Waiter
	resp    []byte
	err     error
}

func rpcArrive(v any) {
	c := v.(*rpcCall)
	c.nd.net.delivered.Add(1)
	c.nd.net.sched.GoArg(rpcServe, v)
}

func rpcServe(v any) {
	c := v.(*rpcCall)
	resp, err := c.target.process(c.service, c.nd.addr, c.req)
	if errors.Is(err, errDropped) {
		return
	}
	back, alive := c.nd.net.transmit(c.dst, c.nd.addr)
	if !alive {
		return
	}
	c.resp, c.err = resp, err
	c.nd.net.sched.AfterArg(back, rpcReply, v)
}

func rpcReply(v any) {
	c := v.(*rpcCall)
	c.nd.net.delivered.Add(1)
	c.w.Deliver(nil)
}

// Call performs an RPC from nd to dst. It must run inside a simulated
// goroutine. timeout bounds the whole exchange (≤ 0 means 30s).
func (nd *Node) Call(dst Addr, service string, req []byte, timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	s := nd.net.sched
	target, ok := nd.net.resolve(dst)
	if !ok {
		return nil, ErrNoRoute
	}
	c := &rpcCall{nd: nd, target: target, dst: dst, service: service, req: req}
	c.w.Bind(s)

	fwd, alive := nd.net.transmit(nd.addr, dst)
	if alive {
		s.AfterArg(fwd, rpcArrive, c)
	}

	if _, err := c.w.Wait(timeout); err != nil {
		return nil, ErrRPCTimeout
	}
	return c.resp, c.err
}

// sendMsg carries a one-way message from Send to its handler. Unlike
// rpcCall — which a timed-out Call leaves referenced by in-flight events —
// nothing holds a sendMsg once its handler returns, so envelopes recycle
// through the Network's freelist and a one-way send allocates nothing in
// the transport. The freelist is a plain slice, not a sync.Pool, so reuse
// is exact in every build (a race build's Pool drops Puts at random).
type sendMsg struct {
	nd      *Node
	target  *Node
	service string
	payload []byte
}

func (n *Network) getMsg() *sendMsg {
	n.freeMu.Lock()
	defer n.freeMu.Unlock()
	k := len(n.freeMsgs)
	if k == 0 {
		return new(sendMsg)
	}
	m := n.freeMsgs[k-1]
	n.freeMsgs[k-1] = nil
	n.freeMsgs = n.freeMsgs[:k-1]
	return m
}

func (n *Network) putMsg(m *sendMsg) {
	*m = sendMsg{} // drop the payload before the envelope is reused
	n.freeMu.Lock()
	n.freeMsgs = append(n.freeMsgs, m)
	n.freeMu.Unlock()
}

func sendArrive(v any) {
	m := v.(*sendMsg)
	m.nd.net.delivered.Add(1)
	m.nd.net.sched.GoArg(sendServe, v)
}

func sendServe(v any) {
	m := v.(*sendMsg)
	_, _ = m.target.process(m.service, m.nd.addr, m.payload)
	m.nd.net.putMsg(m)
}

// Send delivers a one-way message to dst's handler for service. Any reply
// or error from the handler is discarded. Safe to call from events or
// simulated goroutines.
func (nd *Node) Send(dst Addr, service string, payload []byte) {
	s := nd.net.sched
	target, ok := nd.net.resolve(dst)
	if !ok {
		return
	}
	lat, alive := nd.net.transmit(nd.addr, dst)
	if !alive {
		return
	}
	m := nd.net.getMsg()
	*m = sendMsg{nd: nd, target: target, service: service, payload: payload}
	s.AfterArg(lat, sendArrive, m)
}
