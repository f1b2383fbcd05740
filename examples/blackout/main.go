// Blackout: a broadcaster has over-the-air rights to a match but not
// Internet distribution rights, so the program must be blacked out on
// the P2P network during its air time (§II, §IV-A).
//
// The operator deploys a Region=ANY attribute valid for the blackout
// window plus a high-priority REJECT policy — one User Ticket lifetime
// in advance, per the §IV-C lead-time rule. Viewers are cut off within
// one Channel Ticket lifetime of the window opening and can return once
// it closes.
//
//	go run ./examples/blackout
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/geo"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	sys, err := core.NewSystem(core.Options{
		Seed:                  7,
		UserTicketLifetime:    4 * time.Minute,
		ChannelTicketLifetime: 2 * time.Minute,
		RenewWindow:           time.Minute,
	})
	if err != nil {
		return err
	}
	if err := sys.DeployChannel(core.FreeToView("sport1", "Sport One", "100")); err != nil {
		return err
	}
	if _, err := sys.RegisterUser("fan@example.com", "pw"); err != nil {
		return err
	}

	start := sys.Sched.Now()
	boStart := start.Add(10 * time.Minute)
	boEnd := start.Add(20 * time.Minute)

	// Deploy at t=0: 10 minutes of lead time > one 4-minute User Ticket
	// lifetime, satisfying §IV-C.
	if err := sys.DeployBlackout("sport1", boStart, boEnd); err != nil {
		return err
	}
	fmt.Fprintf(w, "blackout deployed for %s–%s (lead time %v)\n",
		boStart.Format(time.Kitchen), boEnd.Format(time.Kitchen), boStart.Sub(start))

	var lastFrame time.Time
	frameLog := map[int]int{} // minute → frames
	c, err := sys.NewClient("fan@example.com", "pw", geo.Addr(100, 5, 1), func(cfg *client.Config) {
		cfg.OnFrame = func(uint64, []byte) {
			now := sys.Sched.Now()
			lastFrame = now
			frameLog[int(now.Sub(start)/time.Minute)]++
		}
	})
	if err != nil {
		return err
	}

	sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			log.Printf("login: %v", err)
			return
		}
		if err := c.Watch("sport1"); err != nil {
			log.Printf("watch: %v", err)
			return
		}
		fmt.Fprintln(w, "fan watching sport1...")

		// During the blackout, the fan retries every couple of minutes —
		// every attempt must be rejected by policy.
		for i := 0; i < 4; i++ {
			sys.Sched.Sleep(12 * time.Minute / 4)
		}
		// After renewals fail the client is cut; try again during the
		// window to show the policy rejection, then after it closes.
		if err := c.Login(); err != nil {
			log.Printf("re-login: %v", err)
			return
		}
		if err := c.Watch("sport1"); err != nil {
			fmt.Fprintf(w, "t=%v: watch during blackout rejected: %v\n",
				sys.Sched.Now().Sub(start).Round(time.Second), err)
		} else {
			fmt.Fprintln(w, "BUG: watch during blackout accepted")
		}

		// Wait out the window, then return.
		sys.Sched.Sleep(boEnd.Sub(sys.Sched.Now()) + time.Minute)
		if err := c.Login(); err != nil {
			log.Printf("post-blackout login: %v", err)
			return
		}
		if err := c.Watch("sport1"); err != nil {
			log.Printf("post-blackout watch: %v", err)
			return
		}
		fmt.Fprintf(w, "t=%v: back on sport1 after the blackout\n",
			sys.Sched.Now().Sub(start).Round(time.Second))
		sys.Sched.Sleep(3 * time.Minute)
	})

	sys.Sched.RunUntil(start.Add(26 * time.Minute))
	sys.StopAll()

	fmt.Fprintln(w, "\nframes received per minute of the broadcast:")
	for m := 0; m < 26; m++ {
		bar := ""
		for i := 0; i < frameLog[m]/6; i++ {
			bar += "#"
		}
		marker := ""
		if mm := start.Add(time.Duration(m) * time.Minute); !mm.Before(boStart) && mm.Before(boEnd) {
			marker = "   << blackout window"
		}
		fmt.Fprintf(w, "  min %2d: %3d %s%s\n", m, frameLog[m], bar, marker)
	}
	_ = lastFrame
	// The cutoff is the first silent minute at/after the window opens.
	cutMin := -1
	for m := 10; m < 26; m++ {
		if frameLog[m] == 0 {
			cutMin = m
			break
		}
	}
	fmt.Fprintf(w, "\nsignal cut by minute %d — within one 2-minute Channel Ticket lifetime of the window\n", cutMin)
	if cutMin < 0 || cutMin > 12 {
		return fmt.Errorf("viewer not cut within a ticket lifetime")
	}
	return nil
}
