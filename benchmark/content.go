package main

import (
	"fmt"
	"math"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/svc"
)

// viewer is one content_stream client and what the harness saw of it on
// the simulation clock. Fields are written only from scheduler context
// (OnFrame and the session goroutine), which the engine serializes.
type viewer struct {
	c           *client.Client
	began       time.Time // Login start
	firstAt     time.Time // first decrypted frame
	frames      int64     // decrypted frames produced inside the timed window
	undecBefore int64     // PacketsUndecrypt when the timed window opened
}

// contentStream is the data-plane workload. No exp figure runs content
// at rate (week, flash and farm all set PacketInterval to a year), so it
// is built here from the same calls exp.RunMegaScale makes for its real
// tree: a root with fan-out 4, viewers joining 250 ms apart, then
// streaming at 10 packets/s with a re-key every minute. Deployment,
// logins, joins and a 30 s warm-up are set-up; only steady-state relay
// is timed.
func contentStream(p params) (func() (*outcome, error), error) {
	viewers, stream := 256, 10*time.Minute
	if p.Quick {
		viewers, stream = 16, 30*time.Second
	}
	sys, err := core.NewSystem(core.Options{
		Seed:            p.Seed,
		RootMaxChildren: 4, // deep tree: packets and keys relay through viewers
		PacketInterval:  100 * time.Millisecond,
		RekeyInterval:   time.Minute,
		RootRegion:      100,
	})
	if err != nil {
		return nil, err
	}
	const channel = "live"
	if err := sys.DeployChannel(core.FreeToView(channel, "Live", "100")); err != nil {
		return nil, err
	}
	// Frames count from the first sequence number produced inside the
	// timed window, so every viewer is owed the same frames.
	windowFrom := uint64(math.MaxUint64)
	vs := make([]*viewer, viewers)
	for i := range vs {
		v := &viewer{}
		vs[i] = v
		email := fmt.Sprintf("view%05d@e", i)
		if _, err := sys.RegisterUser(email, "pw"); err != nil {
			return nil, err
		}
		v.c, err = sys.NewClient(email, "pw", geo.Addr(100, 1+i%40, i+1), func(cc *client.Config) {
			cc.OnFrame = func(seq uint64, _ []byte) {
				if v.firstAt.IsZero() {
					v.firstAt = sys.Sched.Now()
				}
				if seq >= windowFrom {
					v.frames++
				}
			}
		})
		if err != nil {
			return nil, err
		}
		delay := time.Duration(i) * 250 * time.Millisecond
		sys.Sched.Go(func() {
			sys.Sched.Sleep(delay)
			v.began = sys.Sched.Now()
			if err := v.c.Login(); err != nil {
				return
			}
			_ = v.c.Watch(channel)
		})
	}
	warm := time.Duration(viewers)*250*time.Millisecond + 30*time.Second
	sys.Sched.RunUntil(sys.Sched.Now().Add(warm))
	for _, v := range vs {
		if peer := v.c.Peer(); peer != nil {
			v.undecBefore = peer.Stats().PacketsUndecrypt
		}
	}

	return func() (*outcome, error) {
		windowFrom = uint64(sys.Servers[channel].Stats().PacketsProduced)
		sys.Sched.RunUntil(sys.Sched.Now().Add(stream))
		sys.StopAll()
		// Production has stopped; let frames still on a link arrive so
		// every viewer is owed exactly what was produced.
		sys.Sched.RunUntil(sys.Sched.Now().Add(5 * time.Second))
		return contentOutcome(p.Seed, sys, vs, channel, int64(windowFrom)), nil
	}, nil
}

func contentOutcome(seed int64, sys *core.System, vs []*viewer, channel string, windowFrom int64) *outcome {
	o := newOutcome(seed)
	owed := sys.Servers[channel].Stats().PacketsProduced - windowFrom // per viewer
	calls := map[string]svc.CallStats{}
	var cl client.Stats
	peers := sys.Servers[channel].Peer().Stats()
	var got, undecrypt int64
	var toPlay, joins []time.Duration
	for i, v := range vs {
		for name, cs := range v.c.Policy().Stats() {
			t := calls[name]
			t.Merge(cs)
			calls[name] = t
		}
		joins = append(joins, joinLatencies(v.c.FeedbackLog().Samples())...)
		st := v.c.Stats()
		cl.Logins += st.Logins
		cl.Switches += st.Switches
		cl.Renewals += st.Renewals
		cl.Rejoins += st.Rejoins
		cl.Restarts += st.Restarts
		cl.Stalls += st.Stalls
		if peer := v.c.Peer(); peer != nil {
			ps := peer.Stats()
			peers.PacketsReceived += ps.PacketsReceived
			peers.PacketsForwarded += ps.PacketsForwarded
			peers.PacketsDuplicate += ps.PacketsDuplicate
			peers.PacketsUndecrypt += ps.PacketsUndecrypt
			peers.KeysForwarded += ps.KeysForwarded
			peers.JoinsAccepted += ps.JoinsAccepted
			peers.JoinsRejected += ps.JoinsRejected
			undecrypt += ps.PacketsUndecrypt - v.undecBefore
		}
		got += v.frames
		if float64(v.frames) < 0.99*float64(owed) {
			o.failf("content_stream: viewer %d decrypted %d of %d frames (< 99%%)", i, v.frames, owed)
		}
		if !v.firstAt.IsZero() {
			toPlay = append(toPlay, v.firstAt.Sub(v.began))
		}
	}
	if undecrypt != 0 {
		o.failf("content_stream: %d packets undecryptable during steady state", undecrypt)
	}
	expected := owed * int64(len(vs))
	o.Detail = fmt.Sprintf("viewers=%d owed=%d decrypted=%d", len(vs), expected, got)

	o.callMetrics(calls)
	o.endpointMetrics(sys.EndpointTotals())
	o.netMetrics(sys.Net.Stats())
	o.exactP95("join_p95_ms", joins)
	o.exactP95("time_to_play_p95_ms", toPlay)
	o.Values["client.logins"] = float64(cl.Logins)
	o.Values["client.switches"] = float64(cl.Switches)
	o.Values["client.renewals"] = float64(cl.Renewals)
	o.Values["client.rejoins"] = float64(cl.Rejoins)
	o.Values["client.restarts"] = float64(cl.Restarts)
	o.Values["client.stalls"] = float64(cl.Stalls)
	o.Values["p2p.joins_accepted"] = float64(peers.JoinsAccepted)
	o.Values["p2p.joins_rejected"] = float64(peers.JoinsRejected)
	o.Values["p2p.keys_forwarded"] = float64(peers.KeysForwarded)
	o.Values["p2p.packets_forwarded"] = float64(peers.PacketsForwarded)
	o.Values["p2p.packets_duplicate"] = float64(peers.PacketsDuplicate)
	o.Values["p2p.packets_undecrypt"] = float64(peers.PacketsUndecrypt)
	if peers.PacketsReceived > 0 {
		o.Values["p2p.dup_frac"] = float64(peers.PacketsDuplicate) / float64(peers.PacketsReceived)
	}
	o.Attempted, o.Failed = expected, expected-got
	o.setFailedFrac(o.Failed, o.Attempted)
	return o
}
