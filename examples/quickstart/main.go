// Quickstart: bring up the whole DRM deployment in-process, register a
// user, log in, join a live channel and decrypt a few seconds of signal.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"p2pdrm/internal/chserver"
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
	// 1. A provider deployment: 2 User Managers, 4 Channel Managers over
	//    2 partitions, a Channel Policy Manager, a Redirection Manager.
	sys, err := core.NewSystem(core.Options{Seed: 42})
	if err != nil {
		return err
	}

	// 2. Deploy a free-to-view channel for region 100. This starts its
	//    Channel Server: live content is encoded, encrypted under the
	//    rotating key, and injected into the channel's P2P overlay.
	if err := sys.DeployChannel(core.FreeToView("news", "News One", "100")); err != nil {
		return err
	}

	// 3. Out-of-band signup at the Account Manager.
	if _, err := sys.RegisterUser("alice@example.com", "correct horse"); err != nil {
		return err
	}

	// 4. A client in region 100. OnFrame taps the decrypted signal.
	frames := 0
	var lag time.Duration
	c, err := sys.NewClient("alice@example.com", "correct horse",
		geo.Addr(100, 177, 1), func(cfg *client.Config) {
			cfg.OnFrame = func(seq uint64, frame []byte) {
				frames++
				if ts, ok := chserver.FrameTime(frame); ok {
					lag = sys.Sched.Now().Sub(ts)
				}
				if frames <= 3 {
					s, _ := chserver.FrameSeq(frame)
					fmt.Fprintf(w, "  frame seq=%d (%d bytes) lag=%v\n", s, len(frame), lag)
				}
			}
		})
	if err != nil {
		return err
	}

	// 5. The client's life, in virtual time: login (LOGIN1+LOGIN2 →
	//    User Ticket), pick the channel (SWITCH1+SWITCH2 → Channel
	//    Ticket + peers), join the overlay (JOIN → session key +
	//    content keys), then just watch.
	sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			log.Printf("login: %v", err)
			return
		}
		ut := c.UserTicket()
		fmt.Fprintf(w, "logged in: UserIN=%d, %d attributes, ticket expires %s\n",
			ut.UserIN, len(ut.Attrs), ut.Expiry.Format(time.Kitchen))
		fmt.Fprintf(w, "channels available here: %v\n", c.AvailableChannels())

		if err := c.Watch("news"); err != nil {
			log.Printf("watch: %v", err)
			return
		}
		ct := c.ChannelTicket()
		fmt.Fprintf(w, "watching %q with a Channel Ticket (expires %s), decrypting live signal:\n",
			c.Watching(), ct.Expiry.Format(time.Kitchen))
	})

	// 6. Run 30 seconds of simulated time.
	sys.Sched.RunUntil(sys.Sched.Now().Add(30 * time.Second))
	sys.StopAll()

	fmt.Fprintf(w, "received %d decrypted frames in 30s of broadcast (last lag %v)\n", frames, lag)
	for _, s := range c.FeedbackLog().Samples() {
		fmt.Fprintf(w, "  %-7s latency %v\n", s.Round, s.Latency)
	}
	if frames == 0 {
		return fmt.Errorf("no frames decrypted")
	}
	return nil
}
