// Package redirect implements the Redirection Manager (§V): a very light
// backend service whose only job is to look up which User Manager a user
// has been assigned to (its Authentication Domain), plus — for future
// extensibility — the network name and public key of the Channel Policy
// Manager. Its own address and public key are built into the client.
//
// The paper sizes it at "a single hash table lookup", so one instance per
// provider network suffices.
package redirect

import (
	"fmt"
	"io"
	"sync"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/wire"
)

// Assignment names the User Manager serving one user (or the default).
type Assignment struct {
	UserMgr    simnet.Addr
	UserMgrKey []byte
}

// Config parameterizes the Redirection Manager.
type Config struct {
	// Keys, when set, enable the sealed transport variant (§IV-G1); the
	// public half is built into clients alongside the address.
	Keys *cryptoutil.KeyPair
	// RNG seeds sealed-transport responses (nil = crypto/rand).
	RNG io.Reader
	// Default is returned for users without an explicit assignment.
	Default Assignment
	// PolicyMgr / PolicyMgrKey are handed out with every lookup (§V).
	PolicyMgr    simnet.Addr
	PolicyMgrKey []byte
}

// Manager is the Redirection Manager.
type Manager struct {
	cfg  Config
	node *simnet.Node
	rt   *svc.Runtime

	mu      sync.Mutex
	byEmail map[string]Assignment
}

// New creates the manager on the node and registers its service.
func New(node *simnet.Node, cfg Config) (*Manager, error) {
	if cfg.Default.UserMgr == "" {
		return nil, fmt.Errorf("redirect: Default.UserMgr is required")
	}
	m := &Manager{
		cfg:     cfg,
		node:    node,
		rt:      svc.NewRuntime(node),
		byEmail: make(map[string]Assignment),
	}
	svc.Register(m.rt, wire.SvcRedirect, wire.DecodeRedirectReq, m.handleRedirect)
	if cfg.Keys != nil {
		if err := m.rt.EnableSealed(cfg.Keys, cfg.RNG, wire.SvcRedirect); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Runtime exposes the manager's service runtime (endpoint metrics).
func (m *Manager) Runtime() *svc.Runtime { return m.rt }

// Assign maps a user to a specific User Manager (domain).
func (m *Manager) Assign(email string, a Assignment) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.byEmail[email] = a
}

func (m *Manager) handleRedirect(_ simnet.Addr, req *wire.RedirectReq) (*wire.RedirectResp, error) {
	m.mu.Lock()
	a, ok := m.byEmail[req.Email]
	if !ok {
		a = m.cfg.Default
	}
	m.mu.Unlock()
	return &wire.RedirectResp{
		UserMgr:      string(a.UserMgr),
		UserMgrKey:   a.UserMgrKey,
		PolicyMgr:    string(m.cfg.PolicyMgr),
		PolicyMgrKey: m.cfg.PolicyMgrKey,
	}, nil
}
