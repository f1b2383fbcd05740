// Roaming: two of the paper's identity rules in action.
//
//  1. Geographic rights (§II): a user who roams from region 100 to
//     region 200 sees only the channels offered in region 200 — the
//     Region attribute is inferred from the connection address at every
//     login, not chosen by the client.
//
//  2. Single concurrent use (§II, §IV-D): one account may join the same
//     channel at most once at any given time. When the user starts
//     watching on a second computer, the first computer's Channel Ticket
//     renewal is refused (the viewing log's latest entry now names the
//     new address) and its peering is severed at ticket expiry — without
//     the user having to wait out the old ticket.
//
//     go run ./examples/roaming
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
		Seed:                  3,
		ChannelTicketLifetime: 2 * time.Minute,
		RenewWindow:           time.Minute,
	})
	if err != nil {
		return err
	}
	for _, ch := range []struct {
		id, name string
		regions  []string
	}{
		{"home-news", "Home News", []string{"100"}},
		{"world", "World Service", []string{"100", "200"}},
		{"local-200", "Region 200 Local", []string{"200"}},
	} {
		if err := sys.DeployChannel(core.FreeToView(ch.id, ch.name, ch.regions...)); err != nil {
			return err
		}
	}
	if _, err := sys.RegisterUser("traveler@example.com", "pw"); err != nil {
		return err
	}

	start := sys.Sched.Now()

	// The same account from three vantage points.
	home, err := sys.NewClient("traveler@example.com", "pw", geo.Addr(100, 10, 1), nil)
	if err != nil {
		return err
	}
	abroad, err := sys.NewClient("traveler@example.com", "pw", geo.Addr(200, 30, 7), nil)
	if err != nil {
		return err
	}
	frames2 := 0
	second, err := sys.NewClient("traveler@example.com", "pw", geo.Addr(100, 10, 2),
		func(cfg *client.Config) {
			cfg.OnFrame = func(uint64, []byte) { frames2++ }
		})
	if err != nil {
		return err
	}

	sys.Sched.Go(func() {
		// --- Part 1: roaming changes the visible lineup.
		if err := home.Login(); err != nil {
			log.Printf("home login: %v", err)
			return
		}
		fmt.Fprintf(w, "at home (region 100): channels = %v\n", home.AvailableChannels())

		if err := abroad.Login(); err != nil {
			log.Printf("abroad login: %v", err)
			return
		}
		fmt.Fprintf(w, "abroad  (region 200): channels = %v\n", abroad.AvailableChannels())
		if err := abroad.Watch("home-news"); err != nil {
			fmt.Fprintf(w, "abroad, home-news is refused: %v\n", err)
		}
		if err := abroad.Watch("world"); err != nil {
			log.Printf("abroad watch world: %v", err)
			return
		}
		fmt.Fprintln(w, "abroad, world service plays fine")
		abroad.StopWatching()

		// --- Part 2: moving between computers at home.
		if err := home.Watch("world"); err != nil {
			log.Printf("home watch: %v", err)
			return
		}
		fmt.Fprintf(w, "\nt=%v: computer A starts watching 'world'\n",
			sys.Sched.Now().Sub(start).Round(time.Second))
		sys.Sched.Sleep(30 * time.Second)

		if err := second.Login(); err != nil {
			log.Printf("second login: %v", err)
			return
		}
		if err := second.Watch("world"); err != nil {
			log.Printf("second watch: %v", err)
			return
		}
		fmt.Fprintf(w, "t=%v: computer B joins 'world' with the same account — no waiting\n",
			sys.Sched.Now().Sub(start).Round(time.Second))

		// Let A's renewal come due: it must be refused.
		sys.Sched.Sleep(4 * time.Minute)
		fmt.Fprintf(w, "t=%v: computer A renewals failed: %d (latest log entry now names B)\n",
			sys.Sched.Now().Sub(start).Round(time.Second), home.Stats().RenewalsFailed)
		fmt.Fprintf(w, "        computer B renewals OK: %d, still watching %q (%d frames so far)\n",
			second.Stats().Renewals, second.Watching(), frames2)
	})

	sys.Sched.RunUntil(start.Add(10 * time.Minute))
	sys.StopAll()

	if home.Stats().RenewalsFailed == 0 {
		return fmt.Errorf("computer A was never cut off — single-use rule broken")
	}
	if frames2 == 0 {
		return fmt.Errorf("computer B never received frames")
	}
	fmt.Fprintln(w, "\nsingle-concurrent-use enforced; roaming lineup follows the region")
	return nil
}
