package core

import (
	"strings"
	"testing"
	"time"

	"p2pdrm/internal/geo"
	"p2pdrm/internal/redirect"
)

// redirectAssignment builds the Redirection Manager entry for a domain.
func redirectAssignment(sys *System, domain string) redirect.Assignment {
	return redirect.Assignment{
		UserMgr:    addrUserMgrDomain(domain),
		UserMgrKey: sys.userMgrKey().Encode(),
	}
}

// TestAuthenticationDomains exercises §V: the user space is partitioned
// into domains, each served by its own User Manager farm; the
// Redirection Manager routes each user to the right one, and a domain's
// managers refuse accounts belonging to another.
func TestAuthenticationDomains(t *testing.T) {
	sys, err := NewSystem(Options{
		Seed:    11,
		Domains: []string{"eu", "us"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployChannel(FreeToView("news", "News", "100")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.registerUserInDomain("pierre@example.eu", "pw", "eu"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.registerUserInDomain("bob@example.us", "pw", "us"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.registerUserInDomain("x@e", "pw", "mars"); err == nil {
		t.Fatal("unknown domain accepted")
	}

	euClient, err := sys.NewClient("pierre@example.eu", "pw", geo.Addr(100, 1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	usClient, err := sys.NewClient("bob@example.us", "pw", geo.Addr(100, 1, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	var errEU, errUS, errWatch error
	sys.Sched.Go(func() {
		errEU = euClient.Login()
		errUS = usClient.Login()
		if errEU == nil {
			errWatch = euClient.Watch("news")
		}
	})
	sys.Sched.RunUntil(sys.Sched.Now().Add(time.Minute))
	sys.StopAll()
	if errEU != nil || errUS != nil {
		t.Fatalf("domain logins failed: eu=%v us=%v", errEU, errUS)
	}
	if errWatch != nil {
		t.Fatalf("cross-domain ticket rejected by Channel Manager: %v", errWatch)
	}

	// Each domain's farm served exactly its own user: 2 rounds per farm.
	// UserMgrs[0..1] = eu farm, [2..3] = us farm.
	euServed := sys.UserMgrs[0].Stats().Login2Served + sys.UserMgrs[1].Stats().Login2Served
	usServed := sys.UserMgrs[2].Stats().Login2Served + sys.UserMgrs[3].Stats().Login2Served
	if euServed != 1 || usServed != 1 {
		t.Fatalf("logins per domain farm = %d/%d, want 1/1", euServed, usServed)
	}
}

// TestDomainMismatchRefused verifies that presenting an account to the
// wrong domain's User Manager is refused outright (the Redirection
// Manager normally prevents this; a client could try to bypass it).
func TestDomainMismatchRefused(t *testing.T) {
	sys, err := NewSystem(Options{
		Seed:    12,
		Domains: []string{"eu", "us"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.registerUserInDomain("bob@example.us", "pw", "us"); err != nil {
		t.Fatal(err)
	}
	// Point the redirect at the WRONG domain to simulate the bypass.
	sys.Redirect.Assign("bob@example.us", redirectAssignment(sys, "eu"))
	c, err := sys.NewClient("bob@example.us", "pw", geo.Addr(100, 1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	var lerr error
	sys.Sched.Go(func() { lerr = c.Login() })
	sys.Sched.RunUntil(sys.Sched.Now().Add(time.Minute))
	sys.StopAll()
	if lerr == nil || !strings.Contains(lerr.Error(), "domain") {
		t.Fatalf("wrong-domain login err = %v, want domain refusal", lerr)
	}
}

// TestDefaultDomainRegistration routes plain RegisterUser into the first
// configured domain.
func TestDefaultDomainRegistration(t *testing.T) {
	sys, err := NewSystem(Options{Seed: 13, Domains: []string{"eu"}})
	if err != nil {
		t.Fatal(err)
	}
	acct, err := sys.RegisterUser("a@e", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if acct.Domain != "eu" {
		t.Fatalf("domain = %q, want eu", acct.Domain)
	}
}
