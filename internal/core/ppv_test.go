package core

import (
	"testing"
	"time"

	"p2pdrm/internal/geo"
	"p2pdrm/internal/wire"
)

// TestPayPerView exercises the §II pay-per-view flow: the event channel
// is only accessible to buyers, only during the event window, and the
// per-view payment is enforceable because every access is logged and
// every account is authenticated.
func TestPayPerView(t *testing.T) {
	sys, err := NewSystem(Options{
		Seed:               17,
		UserTicketLifetime: 5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := sys.Sched.Now()
	evStart := start.Add(30 * time.Minute)
	evEnd := start.Add(90 * time.Minute)
	if err := sys.DeployChannel(PPVChannel("fight", "The Big Fight", "ppv-fight-night", evStart, evEnd, "100")); err != nil {
		t.Fatal(err)
	}
	for _, email := range []string{"buyer@e", "cheapskate@e"} {
		if _, err := sys.RegisterUser(email, "pw"); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.PurchasePPV("buyer@e", "ppv-fight-night", evStart, evEnd); err != nil {
		t.Fatal(err)
	}

	buyer, _ := sys.NewClient("buyer@e", "pw", geo.Addr(100, 1, 1), nil)
	freeloader, _ := sys.NewClient("cheapskate@e", "pw", geo.Addr(100, 1, 2), nil)

	var early, duringBuyer, duringFree, after error
	sys.Sched.Go(func() {
		// Before the event: even the buyer is refused (the channel's
		// event attribute is not valid yet).
		if err := buyer.Login(); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		early = buyer.Watch("fight")

		// Into the event window.
		sys.Sched.Sleep(evStart.Sub(sys.Sched.Now()) + time.Minute)
		if err := buyer.Login(); err != nil { // fresh ticket with valid purchase
			t.Errorf("relogin: %v", err)
			return
		}
		duringBuyer = buyer.Watch("fight")
		if err := freeloader.Login(); err != nil {
			t.Errorf("freeloader login: %v", err)
			return
		}
		duringFree = freeloader.Watch("fight")
		buyer.StopWatching()

		// After the event.
		sys.Sched.Sleep(evEnd.Sub(sys.Sched.Now()) + time.Minute)
		if err := buyer.Login(); err != nil {
			t.Errorf("post relogin: %v", err)
			return
		}
		after = buyer.Watch("fight")
	})
	sys.Sched.RunUntil(start.Add(2 * time.Hour))
	sys.StopAll()

	if early == nil {
		t.Fatal("buyer admitted before the event window")
	}
	if duringBuyer != nil {
		t.Fatalf("buyer refused during the event: %v", duringBuyer)
	}
	if duringFree == nil {
		t.Fatal("non-buyer admitted to the PPV event")
	}
	if after == nil {
		t.Fatal("buyer admitted after the event ended")
	}
	// Per-view payment accounting: a Channel Manager answered the
	// buyer's SWITCH2 with a ticket.
	logged := false
	for _, part := range sys.Opts.Partitions {
		for _, m := range sys.ChanMgrs(part) {
			if sw := m.Runtime().Snapshot()[wire.SvcSwitch2]; sw.Requests > sw.Errors {
				logged = true
			}
		}
	}
	if !logged {
		t.Fatal("no ticket issuance recorded for billing")
	}
}
