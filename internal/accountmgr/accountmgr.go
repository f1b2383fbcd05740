// Package accountmgr implements the Account Manager: the out-of-band
// service (a web site in the paper, §II "Viewing Experience") where users
// register, subscribe to channel packages, purchase pay-per-view
// programs, and top up accounts. It "securely sends the user's
// identification, subscription, and payment information to the User
// Manager" (§IV-B) — in this reproduction the User Manager reads account
// snapshots directly.
package accountmgr

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"p2pdrm/internal/cryptoutil"
)

// Account errors.
var (
	ErrDuplicateEmail = errors.New("accountmgr: email already registered")
	ErrNoAccount      = errors.New("accountmgr: no such account")
	ErrDisabled       = errors.New("accountmgr: account disabled")
)

// Subscription is one package the user subscribed to, with its paid
// period. Zero End means open-ended (auto-renewing).
type Subscription struct {
	Package string
	Start   time.Time
	End     time.Time
}

// ActiveAt reports whether the subscription covers t.
func (s Subscription) ActiveAt(t time.Time) bool {
	if !s.Start.IsZero() && t.Before(s.Start) {
		return false
	}
	if !s.End.IsZero() && !t.Before(s.End) {
		return false
	}
	return true
}

// Account is the snapshot the User Manager consumes.
type Account struct {
	Email         string
	UserIN        uint64
	SHP           cryptoutil.SymKey // secure hash of the password
	Subscriptions []Subscription
	Domain        string // Authentication Domain (§V)
	Disabled      bool
}

// Manager is the Account Manager.
type Manager struct {
	mu      sync.Mutex
	byEmail map[string]*Account
	nextIN  uint64
}

// New creates an empty Account Manager.
func New() *Manager {
	return &Manager{byEmail: make(map[string]*Account), nextIN: 1}
}

// Register creates an account, hashing the password into shp, and returns
// its snapshot.
func (m *Manager) Register(email, password string) (Account, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.byEmail[email]; ok {
		return Account{}, ErrDuplicateEmail
	}
	a := &Account{
		Email:  email,
		UserIN: m.nextIN,
		SHP:    cryptoutil.HashPassword(password, email),
	}
	m.nextIN++
	m.byEmail[email] = a
	return snapshot(a), nil
}

// Subscribe adds a subscription period to the account.
func (m *Manager) Subscribe(email, pkg string, start, end time.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.byEmail[email]
	if !ok {
		return ErrNoAccount
	}
	a.Subscriptions = append(a.Subscriptions, Subscription{Package: pkg, Start: start, End: end})
	return nil
}

// CancelSubscription removes all subscriptions to pkg.
func (m *Manager) CancelSubscription(email, pkg string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.byEmail[email]
	if !ok {
		return ErrNoAccount
	}
	kept := a.Subscriptions[:0]
	for _, s := range a.Subscriptions {
		if s.Package != pkg {
			kept = append(kept, s)
		}
	}
	a.Subscriptions = kept
	return nil
}

// SetDomain assigns the user to an Authentication Domain (§V).
func (m *Manager) SetDomain(email, domain string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.byEmail[email]
	if !ok {
		return ErrNoAccount
	}
	a.Domain = domain
	return nil
}

// SetDisabled enables or disables the account.
func (m *Manager) SetDisabled(email string, disabled bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.byEmail[email]
	if !ok {
		return ErrNoAccount
	}
	a.Disabled = disabled
	return nil
}

// ChangePassword replaces the account password.
func (m *Manager) ChangePassword(email, password string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.byEmail[email]
	if !ok {
		return ErrNoAccount
	}
	a.SHP = cryptoutil.HashPassword(password, email)
	return nil
}

// Lookup returns the account snapshot for the User Manager.
func (m *Manager) Lookup(email string) (Account, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.byEmail[email]
	if !ok {
		return Account{}, ErrNoAccount
	}
	if a.Disabled {
		return Account{}, ErrDisabled
	}
	return snapshot(a), nil
}

// count returns the number of registered accounts.
func (m *Manager) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byEmail)
}

func snapshot(a *Account) Account {
	out := *a
	out.Subscriptions = append([]Subscription(nil), a.Subscriptions...)
	return out
}

// String describes the manager for logs.
func (m *Manager) String() string {
	return fmt.Sprintf("AccountManager{%d accounts}", m.count())
}
