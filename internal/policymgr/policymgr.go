// Package policymgr implements the Channel Policy Manager (§IV-A): the
// central administrative authority holding the Channel List (all channels
// with their attributes and policies) and the Channel Attribute List (all
// unique attributes collated across channels, with last-update times).
//
// Whenever a channel is added, removed or modified, the manager updates
// the affected utimes, pushes the Channel List to the Channel Managers
// and the Channel Attribute List to the User Managers. Clients whose User
// Tickets reveal stale utimes fetch an updated Channel List from here
// (§IV-B).
package policymgr

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/policy"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/ticket"
	"p2pdrm/internal/wire"
)

// Management errors.
var (
	ErrDuplicateChannel = errors.New("policymgr: channel id already exists")
	ErrNoChannel        = errors.New("policymgr: no such channel")
)

// Config parameterizes the Channel Policy Manager.
type Config struct {
	// Keys, when set, enable the sealed transport variant of the Channel
	// List service (§IV-G1) and identify the manager to clients.
	Keys *cryptoutil.KeyPair
	// RNG seeds sealed-transport responses (nil = crypto/rand).
	RNG io.Reader
	// UserMgrKey verifies User Tickets presented on Channel List fetches.
	UserMgrKey cryptoutil.PublicKey
	// UserMgrs receive Channel Attribute List pushes.
	UserMgrs []simnet.Addr
	// ChannelMgrs receive Channel List pushes.
	ChannelMgrs []simnet.Addr
}

// Manager is the Channel Policy Manager. The paper does not foresee the
// need for more than one per provider network (§V).
type Manager struct {
	cfg  Config
	node *simnet.Node
	rt   *svc.Runtime
	// verifier memoizes User Ticket signature checks: clients refetching
	// the Channel List present the same signed ticket for its whole life.
	verifier *ticket.Verifier

	mu       sync.Mutex
	channels map[string]*policy.Channel
	// chanList is the encoded Channel List every fetch and push carries:
	// identical for every caller, so it is encoded once per lineup. nil
	// means stale — every mutation of channels, or of a channel's
	// attributes or rules, drops it (see chanListLocked).
	chanList []byte
	// tombstones keeps utimes of attributes whose channels were removed,
	// so the Channel Attribute List still signals the change (§IV-A).
	tombstones map[policy.AttrKey]time.Time
	// feedVersion orders pushes; receivers discard stale feeds that were
	// reordered in flight.
	feedVersion uint64
}

// New creates the manager on the node and registers its services.
func New(node *simnet.Node, cfg Config) (*Manager, error) {
	if len(cfg.UserMgrKey.Verify) == 0 {
		return nil, fmt.Errorf("policymgr: UserMgrKey is required")
	}
	m := &Manager{
		cfg:        cfg,
		node:       node,
		rt:         svc.NewRuntime(node),
		verifier:   ticket.NewVerifier(0),
		channels:   make(map[string]*policy.Channel),
		tombstones: make(map[policy.AttrKey]time.Time),
	}
	svc.Register(m.rt, wire.SvcChanList, wire.DecodeChanListReq, m.handleChanList)
	if cfg.Keys != nil {
		if err := m.rt.EnableSealed(cfg.Keys, cfg.RNG, wire.SvcChanList); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Runtime exposes the manager's service runtime (endpoint metrics).
func (m *Manager) Runtime() *svc.Runtime { return m.rt }

// AddChannel registers a new channel and pushes updates.
func (m *Manager) AddChannel(ch *policy.Channel) error {
	m.mu.Lock()
	if _, ok := m.channels[ch.ID]; ok {
		m.mu.Unlock()
		return ErrDuplicateChannel
	}
	cp := ch.Clone()
	cp.TouchAttrs(m.node.Scheduler().Now())
	m.channels[cp.ID] = cp
	m.chanList = nil
	m.mu.Unlock()
	m.push()
	return nil
}

// RemoveChannel deletes a channel; its attributes' utimes are tombstoned
// so clients notice the lineup change.
func (m *Manager) RemoveChannel(id string) error {
	now := m.node.Scheduler().Now()
	m.mu.Lock()
	ch, ok := m.channels[id]
	if !ok {
		m.mu.Unlock()
		return ErrNoChannel
	}
	for _, a := range ch.Attrs {
		m.tombstones[policy.AttrKey{Name: a.Name, Value: a.Value}] = now
	}
	delete(m.channels, id)
	m.chanList = nil
	m.mu.Unlock()
	m.push()
	return nil
}

// UpdateChannel mutates a channel under the manager's lock; all its
// attribute utimes are made current and updates are pushed (§IV-A).
func (m *Manager) UpdateChannel(id string, mutate func(*policy.Channel) error) error {
	m.mu.Lock()
	ch, ok := m.channels[id]
	if !ok {
		m.mu.Unlock()
		return ErrNoChannel
	}
	m.chanList = nil // before mutate: a failing mutate may still have written
	if err := mutate(ch); err != nil {
		m.mu.Unlock()
		return err
	}
	ch.TouchAttrs(m.node.Scheduler().Now())
	m.mu.Unlock()
	m.push()
	return nil
}

// SetBlackout applies the paper's blackout recipe to a channel: a
// Region=ANY attribute valid during [start, end) plus a high-priority
// REJECT rule (§IV-A). Remember the deployment-lead-time rule: the call
// must happen at least one User Ticket lifetime before start (§IV-C).
func (m *Manager) SetBlackout(id string, start, end time.Time) error {
	return m.UpdateChannel(id, func(ch *policy.Channel) error {
		a, r := policy.Blackout(start, end, 100, m.node.Scheduler().Now())
		ch.Attrs = append(ch.Attrs, a)
		ch.Rules = append(ch.Rules, r)
		return nil
	})
}

// Channels returns a copy of the Channel List sorted by ID.
func (m *Manager) Channels() []*policy.Channel {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.sortedLocked()
	for i, c := range out {
		out[i] = c.Clone()
	}
	return out
}

// sortedLocked returns the live channels sorted by ID.
func (m *Manager) sortedLocked() []*policy.Channel {
	out := make([]*policy.Channel, 0, len(m.channels))
	for _, c := range m.channels {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// chanListLocked returns the encoded Channel List, encoding it if a
// mutation dropped the last one. The result is shared: callers only copy
// it into their own message.
func (m *Manager) chanListLocked() []byte {
	if m.chanList == nil {
		m.chanList = policy.AppendChannels(nil, m.sortedLocked())
	}
	return m.chanList
}

// attrListLocked builds the Channel Attribute List, including
// tombstoned keys.
func (m *Manager) attrListLocked() policy.ChannelAttrList {
	chs := make([]*policy.Channel, 0, len(m.channels))
	for _, c := range m.channels {
		chs = append(chs, c)
	}
	l := policy.BuildAttrList(chs)
	for k, ut := range m.tombstones {
		if cur, ok := l[k]; !ok || ut.After(cur) {
			l[k] = ut
		}
	}
	return l
}

// push distributes the two lists to the subscribed managers, wrapped in
// versioned Feed envelopes so in-flight reordering cannot regress state.
func (m *Manager) push() {
	m.mu.Lock()
	m.feedVersion++
	v := m.feedVersion
	chBlob := (&wire.Feed{Version: v, Body: m.chanListLocked()}).Encode()
	alBlob := (&wire.Feed{Version: v, Body: m.attrListLocked().Encode()}).Encode()
	cms := append([]simnet.Addr(nil), m.cfg.ChannelMgrs...)
	ums := append([]simnet.Addr(nil), m.cfg.UserMgrs...)
	m.mu.Unlock()
	for _, cm := range cms {
		m.node.Send(cm, wire.SvcChannelFeed, chBlob)
	}
	for _, um := range ums {
		m.node.Send(um, wire.SvcPolicyFeed, alBlob)
	}
}

// AddUserMgr subscribes a User Manager deployed mid-run (farm scale-out)
// to attribute-list pushes and immediately sends it the current list so
// it starts warm instead of waiting for the next lineup change.
func (m *Manager) AddUserMgr(um simnet.Addr) {
	m.mu.Lock()
	for _, a := range m.cfg.UserMgrs {
		if a == um {
			m.mu.Unlock()
			return
		}
	}
	m.cfg.UserMgrs = append(m.cfg.UserMgrs, um)
	if m.feedVersion == 0 {
		m.feedVersion = 1 // receivers discard version 0 as stale
	}
	alBlob := (&wire.Feed{Version: m.feedVersion, Body: m.attrListLocked().Encode()}).Encode()
	m.mu.Unlock()
	m.node.Send(um, wire.SvcPolicyFeed, alBlob)
}

// handleChanList serves a client's Channel List fetch: the client
// presents its User Ticket (whose fresher utimes triggered the fetch) and
// receives the full current Channel List.
func (m *Manager) handleChanList(from simnet.Addr, req *wire.ChanListReq) (*wire.ChanListResp, error) {
	now := m.node.Scheduler().Now()
	ut, err := m.verifier.VerifyUser(req.UserTicket, m.cfg.UserMgrKey)
	if err != nil {
		return nil, wire.Errf(wire.CodeBadTicket, "%v", err)
	}
	if err := ut.ValidAt(now); err != nil {
		return nil, wire.Errf(wire.CodeExpiredTicket, "%v", err)
	}
	if ut.NetAddr() != string(from) {
		return nil, wire.Errf(wire.CodeAddrMismatch, "ticket/connection address mismatch")
	}
	m.mu.Lock()
	blob := m.chanListLocked()
	m.mu.Unlock()
	return &wire.ChanListResp{Channels: blob}, nil
}
