// Operator: a broadcast operator's day at the Channel Policy Manager —
// lineup changes, a pay-per-view event, and how the utime machinery
// (§IV-A/§IV-B) carries every administrative action to clients without
// any push channel to the clients themselves:
//
//	change → Channel Policy Manager updates utimes
//	       → Channel Attribute List pushed to User Managers
//	       → the next User Ticket carries fresher utimes
//	       → client notices, refetches the Channel List.
//
//	go run ./examples/operator
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

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
		Seed:               23,
		UserTicketLifetime: 3 * time.Minute, // short, so lineup changes propagate fast
	})
	if err != nil {
		return err
	}
	start := sys.Sched.Now()
	at := func() string { return sys.Sched.Now().Sub(start).Round(time.Second).String() }

	// Morning lineup.
	if err := sys.DeployChannel(core.FreeToView("news", "News One", "100")); err != nil {
		return err
	}
	if err := sys.DeployChannel(core.SubscriptionChannel("movies", "Movie Gold", "gold", "100")); err != nil {
		return err
	}
	fmt.Fprintln(w, "operator: morning lineup deployed: news (free), movies (subscription)")

	if _, err := sys.RegisterUser("viewer@example.com", "pw"); err != nil {
		return err
	}
	c, err := sys.NewClient("viewer@example.com", "pw", geo.Addr(100, 7, 1), nil)
	if err != nil {
		return err
	}

	sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			log.Printf("login: %v", err)
			return
		}
		fmt.Fprintf(w, "t=%s viewer sees: %v\n", at(), c.AvailableChannels())

		// --- The operator sells the viewer a 'gold' subscription and
		// launches a new free channel.
		if err := sys.Accounts.Subscribe("viewer@example.com", "gold",
			sys.Sched.Now(), sys.Sched.Now().Add(30*24*time.Hour)); err != nil {
			log.Printf("subscribe: %v", err)
			return
		}
		if err := sys.DeployChannel(core.FreeToView("extra", "Extra!", "100")); err != nil {
			log.Printf("deploy: %v", err)
			return
		}
		fmt.Fprintf(w, "t=%s operator: sold 'gold' to viewer; launched channel 'extra'\n", at())

		// The running client still holds its old ticket — no change yet.
		fmt.Fprintf(w, "t=%s viewer (stale ticket) sees: %v\n", at(), c.AvailableChannels())

		// At the next User Ticket renewal the fresher utimes trigger a
		// Channel List refetch automatically.
		sys.Sched.Sleep(3 * time.Minute)
		if err := c.RenewUserTicket(); err != nil {
			log.Printf("renew: %v", err)
			return
		}
		fmt.Fprintf(w, "t=%s viewer (fresh ticket) sees: %v\n", at(), c.AvailableChannels())

		// --- A PPV event for tonight goes on sale.
		evStart := sys.Sched.Now().Add(10 * time.Minute)
		evEnd := evStart.Add(time.Hour)
		if err := sys.DeployChannel(core.PPVChannel("fight", "Fight Night", "ppv-42", evStart, evEnd, "100")); err != nil {
			log.Printf("deploy ppv: %v", err)
			return
		}
		if err := sys.PurchasePPV("viewer@example.com", "ppv-42", evStart, evEnd); err != nil {
			log.Printf("purchase: %v", err)
			return
		}
		fmt.Fprintf(w, "t=%s operator: PPV 'Fight Night' on sale; viewer bought it\n", at())

		if err := c.RenewUserTicket(); err != nil {
			log.Printf("renew: %v", err)
			return
		}
		if err := c.Watch("fight"); err != nil {
			fmt.Fprintf(w, "t=%s before the event, 'fight' is refused: %v\n", at(), err)
		}
		sys.Sched.Sleep(evStart.Sub(sys.Sched.Now()) + time.Minute)
		if err := c.RenewUserTicket(); err != nil {
			log.Printf("renew: %v", err)
			return
		}
		if err := c.Watch("fight"); err != nil {
			log.Printf("watch fight: %v", err)
			return
		}
		fmt.Fprintf(w, "t=%s event started — viewer is watching %q\n", at(), c.Watching())
		c.StopWatching()

		// --- End of day: the operator withdraws 'extra'.
		if err := sys.RemoveChannel("extra"); err != nil {
			log.Printf("remove: %v", err)
			return
		}
		sys.Sched.Sleep(3 * time.Minute)
		if err := c.RenewUserTicket(); err != nil {
			log.Printf("renew: %v", err)
			return
		}
		fmt.Fprintf(w, "t=%s operator removed 'extra'; viewer sees: %v\n", at(), c.AvailableChannels())
	})

	sys.Sched.RunUntil(start.Add(40 * time.Minute))
	sys.StopAll()

	fmt.Fprintf(w, "\nchannel-list fetches triggered by utime changes: %d\n", c.Stats().ListFetches)
	if c.Stats().ListFetches < 3 {
		return fmt.Errorf("lineup changes did not propagate")
	}

	viewingReport(w, sys, start)
	return nil
}

// viewingReport prints the end-of-day royalty/viewing-rate report from
// the viewing logs (§II: licensing fees, royalties, per-view payment, ad
// ratings), one section per partition in Options order.
func viewingReport(w io.Writer, sys *core.System, since time.Time) {
	fmt.Fprintln(w, "\nviewing report (per partition):")
	for _, part := range sys.Opts.Partitions {
		// A partition's members share one viewing log.
		for _, u := range sys.ChanMgrs(part)[0].Log().Usage(since, sys.Sched.Now()) {
			fmt.Fprintf(w, "  [%s] %-8s viewers=%d ticket-issues=%d\n",
				part, u.ChannelID, u.UniqueViewers, u.TicketIssues)
		}
	}
}
