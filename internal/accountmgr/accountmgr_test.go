package accountmgr

import (
	"errors"
	"testing"
	"time"
)

var (
	now  = time.Date(2008, 6, 23, 12, 0, 0, 0, time.UTC)
	past = now.Add(-time.Hour)
	soon = now.Add(time.Hour)
)

func TestRegisterAssignsUniqueUserINs(t *testing.T) {
	m := New()
	a, err := m.Register("a@example.com", "pw-a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Register("b@example.com", "pw-b")
	if err != nil {
		t.Fatal(err)
	}
	if a.UserIN == 0 || b.UserIN == 0 || a.UserIN == b.UserIN {
		t.Fatalf("UserINs = %d, %d", a.UserIN, b.UserIN)
	}
	if a.SHP == b.SHP {
		t.Fatal("different passwords produced identical shp")
	}
}

func TestRegisterDuplicateEmail(t *testing.T) {
	m := New()
	if _, err := m.Register("a@e", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register("a@e", "y"); !errors.Is(err, ErrDuplicateEmail) {
		t.Fatalf("err = %v, want ErrDuplicateEmail", err)
	}
}

func TestLookupUnknown(t *testing.T) {
	m := New()
	if _, err := m.Lookup("ghost@e"); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("err = %v, want ErrNoAccount", err)
	}
}

func TestDisableBlocksLookup(t *testing.T) {
	m := New()
	_, _ = m.Register("a@e", "x")
	if err := m.SetDisabled("a@e", true); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Lookup("a@e"); !errors.Is(err, ErrDisabled) {
		t.Fatalf("err = %v, want ErrDisabled", err)
	}
	_ = m.SetDisabled("a@e", false)
	if _, err := m.Lookup("a@e"); err != nil {
		t.Fatalf("re-enabled account not found: %v", err)
	}
}

func TestSubscriptionLifecycle(t *testing.T) {
	m := New()
	_, _ = m.Register("a@e", "x")
	if err := m.Subscribe("a@e", "premium", past, soon); err != nil {
		t.Fatal(err)
	}
	acct, _ := m.Lookup("a@e")
	if len(acct.Subscriptions) != 1 || acct.Subscriptions[0].Package != "premium" {
		t.Fatalf("subs = %+v", acct.Subscriptions)
	}
	if !acct.Subscriptions[0].ActiveAt(now) {
		t.Fatal("subscription not active inside its window")
	}
	if acct.Subscriptions[0].ActiveAt(soon.Add(time.Minute)) {
		t.Fatal("subscription active after end")
	}
	if err := m.CancelSubscription("a@e", "premium"); err != nil {
		t.Fatal(err)
	}
	acct, _ = m.Lookup("a@e")
	if len(acct.Subscriptions) != 0 {
		t.Fatalf("subs after cancel = %+v", acct.Subscriptions)
	}
}

func TestSubscriptionOpenEnded(t *testing.T) {
	s := Subscription{Package: "p", Start: past}
	if !s.ActiveAt(now.AddDate(10, 0, 0)) {
		t.Fatal("open-ended subscription expired")
	}
	if s.ActiveAt(past.Add(-time.Second)) {
		t.Fatal("subscription active before start")
	}
}

func TestSubscribeUnknownAccount(t *testing.T) {
	m := New()
	if err := m.Subscribe("ghost@e", "p", past, soon); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("err = %v", err)
	}
	if err := m.CancelSubscription("ghost@e", "p"); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("err = %v", err)
	}
	if err := m.SetDomain("ghost@e", "d"); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("err = %v", err)
	}
	if err := m.SetDisabled("ghost@e", true); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("err = %v", err)
	}
	if err := m.ChangePassword("ghost@e", "x"); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("err = %v", err)
	}
}

func TestSetDomain(t *testing.T) {
	m := New()
	_, _ = m.Register("a@e", "x")
	if err := m.SetDomain("a@e", "eu-west"); err != nil {
		t.Fatal(err)
	}
	acct, _ := m.Lookup("a@e")
	if acct.Domain != "eu-west" {
		t.Fatalf("domain = %q", acct.Domain)
	}
}

func TestChangePassword(t *testing.T) {
	m := New()
	before, _ := m.Register("a@e", "old")
	if err := m.ChangePassword("a@e", "new"); err != nil {
		t.Fatal(err)
	}
	after, _ := m.Lookup("a@e")
	if before.SHP == after.SHP {
		t.Fatal("shp unchanged after password change")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m := New()
	_, _ = m.Register("a@e", "x")
	_ = m.Subscribe("a@e", "p1", past, soon)
	snap, _ := m.Lookup("a@e")
	snap.Subscriptions[0].Package = "tampered"
	fresh, _ := m.Lookup("a@e")
	if fresh.Subscriptions[0].Package != "p1" {
		t.Fatal("snapshot shares state with the manager")
	}
}

func TestCount(t *testing.T) {
	m := New()
	_, _ = m.Register("a@e", "x")
	_, _ = m.Register("b@e", "x")
	if m.count() != 2 {
		t.Fatalf("Count = %d", m.count())
	}
	if m.String() == "" {
		t.Fatal("empty String()")
	}
}
