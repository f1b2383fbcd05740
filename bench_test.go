// Package bench holds the testing.B benchmarks that `go run ./benchmark`
// has no probe or workload for: one per evaluation artifact (DESIGN.md's
// per-experiment index — Fig. 5/6, Pearson, the baseline, key rotation,
// farm scaling, the secure-transport ablation) plus the workload
// generator. Per-call crypto, ticket, packet and policy costs live in
// benchmark/'s probes only. Latencies inside the simulator are virtual;
// these benchmarks measure the real CPU cost per protocol operation and
// regenerate each figure's machinery end-to-end.
//
// It also holds the exported-surface rule (surface_test.go).
//
// Run: go test -bench=. -benchmem
package bench

import (
	"fmt"
	mrand "math/rand"
	"testing"
	"time"

	"p2pdrm/internal/core"
	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/exp"
	"p2pdrm/internal/feedback"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/keys"
	"p2pdrm/internal/p2p"
	"p2pdrm/internal/sectran"
	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/ticket"
	"p2pdrm/internal/trad"
	"p2pdrm/internal/workload"
)

// newBenchSystem builds a default deployment with one free channel and
// one registered account, content production disabled.
func newBenchSystem(b *testing.B) *core.System {
	b.Helper()
	sys, err := core.NewSystem(core.Options{
		Seed:           1,
		PacketInterval: 24 * 365 * time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.DeployChannel(core.FreeToView("bench", "Bench", "100")); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.RegisterUser("bench@e", "pw"); err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkFig5Login measures one full LOGIN1+LOGIN2 exchange (E1).
func BenchmarkFig5Login(b *testing.B) {
	sys := newBenchSystem(b)
	c, err := sys.NewClient("bench@e", "pw", geo.Addr(100, 1, 1), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sys.Sched.Go(func() {
		for i := 0; i < b.N; i++ {
			if err := c.Login(); err != nil {
				b.Errorf("login: %v", err)
				return
			}
		}
	})
	sys.Sched.RunUntil(sys.Sched.Now().Add(time.Duration(b.N+1) * time.Hour))
}

// BenchmarkFig5Switch measures one full SWITCH1+SWITCH2 exchange plus
// overlay join/leave (E2).
func BenchmarkFig5Switch(b *testing.B) {
	sys := newBenchSystem(b)
	c, err := sys.NewClient("bench@e", "pw", geo.Addr(100, 1, 1), nil)
	if err != nil {
		b.Fatal(err)
	}
	ready := false
	sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			b.Errorf("login: %v", err)
			return
		}
		ready = true
	})
	sys.Sched.RunUntil(sys.Sched.Now().Add(time.Minute))
	if !ready {
		b.Fatal("login never completed")
	}
	b.ResetTimer()
	sys.Sched.Go(func() {
		for i := 0; i < b.N; i++ {
			if err := c.Watch("bench"); err != nil {
				b.Errorf("watch: %v", err)
				return
			}
			c.StopWatching()
			// Keep the user ticket fresh across long bench runs.
			if i%50 == 49 {
				if err := c.Login(); err != nil {
					b.Errorf("relogin: %v", err)
					return
				}
			}
		}
	})
	sys.Sched.RunUntil(sys.Sched.Now().Add(time.Duration(b.N+1) * time.Hour))
}

// BenchmarkFig5Join measures the single-round peer JOIN (E3): Channel
// Ticket verification, session-key generation and sealing, content-key
// delivery.
func BenchmarkFig5Join(b *testing.B) {
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: time.Millisecond}))
	rng := cryptoutil.NewSeededReader(1)
	cmKeys, _ := cryptoutil.NewKeyPair(rng)
	srvKeys, _ := cryptoutil.NewKeyPair(rng)
	root, err := newBenchPeer(net, "root", cmKeys, srvKeys, rng, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	_ = root
	addr := geo.Addr(100, 1, 1)
	cliKeys, _ := cryptoutil.NewKeyPair(rng)
	cli, err := newBenchPeer(net, addr, cmKeys, cliKeys, rng, 4)
	if err != nil {
		b.Fatal(err)
	}
	ct := &ticket.ChannelTicket{
		UserIN: 1, ChannelID: "bench", NetAddr: string(addr),
		ClientKey: cliKeys.Public(), Start: s.Now(), Expiry: s.Now().Add(1000 * time.Hour),
	}
	cli.SetTicket(ticket.SignChannel(ct, cmKeys))
	b.ResetTimer()
	s.Go(func() {
		for i := 0; i < b.N; i++ {
			if err := cli.JoinParent("root", nil, 0); err != nil {
				b.Errorf("join: %v", err)
				return
			}
		}
	})
	s.RunUntil(s.Now().Add(time.Duration(b.N+1) * time.Minute))
}

// BenchmarkFig6CDF measures the Fig. 6 analysis over a 100k-sample
// corpus (E4).
func BenchmarkFig6CDF(b *testing.B) {
	corpus := syntheticCorpus(100000)
	start := time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peak := corpus.Latencies(feedback.Join, start, 18, 24)
		off := corpus.Latencies(feedback.Join, start, 0, 18)
		_ = feedback.CDF(peak, 2*time.Second, 50)
		_ = feedback.CDF(off, 2*time.Second, 50)
	}
}

// BenchmarkPearson measures the correlation computation over a full
// week of hourly points (E5).
func BenchmarkPearson(b *testing.B) {
	corpus := syntheticCorpus(100000)
	start := time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := corpus.Hourly(feedback.Join, start, 168)
		_ = feedback.PearsonHourly(pts)
	}
}

// BenchmarkBaselineTraditional measures one per-file license acquisition
// against the central License Manager (E6's baseline unit cost).
func BenchmarkBaselineTraditional(b *testing.B) {
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: time.Millisecond}))
	if _, err := trad.New(net.NewNode("license"), trad.Config{RNG: cryptoutil.NewSeededReader(1)}); err != nil {
		b.Fatal(err)
	}
	cli := net.NewNode(geo.Addr(100, 1, 1))
	b.ResetTimer()
	s.Go(func() {
		for i := 0; i < b.N; i++ {
			if _, err := trad.RequestLicense(cli, "license", 1, fmt.Sprintf("f%d", i), 0); err != nil {
				b.Errorf("license: %v", err)
				return
			}
		}
	})
	s.RunUntil(s.Now().Add(time.Duration(b.N+1) * time.Minute))
}

// BenchmarkKeyRotation measures one content-key rotation pushed through
// a root with 16 children (E7): generate, then per-child seal+send.
func BenchmarkKeyRotation(b *testing.B) {
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: time.Millisecond}))
	rng := cryptoutil.NewSeededReader(1)
	cmKeys, _ := cryptoutil.NewKeyPair(rng)
	rootKeys, _ := cryptoutil.NewKeyPair(rng)
	root, err := newBenchPeer(net, "root", cmKeys, rootKeys, rng, 64)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		addr := geo.Addr(100, 1, i+1)
		kp, _ := cryptoutil.NewKeyPair(rng)
		p, err := newBenchPeer(net, addr, cmKeys, kp, rng, 4)
		if err != nil {
			b.Fatal(err)
		}
		ct := &ticket.ChannelTicket{
			UserIN: uint64(i), ChannelID: "bench", NetAddr: string(addr),
			ClientKey: kp.Public(), Start: s.Now(), Expiry: s.Now().Add(1000 * time.Hour),
		}
		p.SetTicket(ticket.SignChannel(ct, cmKeys))
		s.Go(func() {
			if err := p.JoinParent("root", nil, 0); err != nil {
				b.Errorf("join: %v", err)
			}
		})
	}
	s.RunUntil(s.Now().Add(time.Minute))
	sched, _ := keys.NewSchedule(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck, err := sched.Rotate()
		if err != nil {
			b.Fatal(err)
		}
		root.InjectKey(ck)
	}
	b.StopTimer()
	s.RunUntil(s.Now().Add(time.Hour))
}

// BenchmarkFarmScaling runs a miniature E8 point (farm of 2 under a
// small burst) end to end.
func BenchmarkFarmScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := exp.RunFarmScaling(exp.FarmConfig{
			Seed:      int64(i + 1),
			Viewers:   40,
			Spread:    10 * time.Second,
			FarmSizes: []int{2},
		})
		if err != nil {
			b.Fatal(err)
		}
		if pts[0].Failures > 0 {
			b.Fatalf("failures: %d", pts[0].Failures)
		}
	}
}

// BenchmarkFig5WeekTrace runs a miniature of the whole Fig. 5 pipeline:
// a 6-hour diurnal trace with full protocol traffic and analysis.
func BenchmarkFig5WeekTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunWeek(exp.WeekConfig{
			Seed:                int64(i + 1),
			Days:                1,
			Channels:            3,
			Users:               30,
			PeakSessionsPerHour: 20,
			MeanSession:         15 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = exp.RenderCorrelations(res)
	}
}

// BenchmarkSecureTransport is the §IV-G1 ablation: the full login
// exchange over plaintext vs. the SSL-like sealed transport, quantifying
// what the optional protection costs per login.
func BenchmarkSecureTransport(b *testing.B) {
	for _, mode := range []struct {
		name   string
		secure bool
	}{{"plain", false}, {"sealed", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			sys, err := core.NewSystem(core.Options{
				Seed:            1,
				PacketInterval:  24 * 365 * time.Hour,
				SecureTransport: mode.secure,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.DeployChannel(core.FreeToView("bench", "Bench", "100")); err != nil {
				b.Fatal(err)
			}
			if _, err := sys.RegisterUser("bench@e", "pw"); err != nil {
				b.Fatal(err)
			}
			c, err := sys.NewClient("bench@e", "pw", geo.Addr(100, 1, 1), nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			sys.Sched.Go(func() {
				for i := 0; i < b.N; i++ {
					if err := c.Login(); err != nil {
						b.Errorf("login: %v", err)
						return
					}
				}
			})
			sys.Sched.RunUntil(sys.Sched.Now().Add(time.Duration(b.N+1) * time.Hour))
		})
	}
}

// --- Component benchmarks ------------------------------------------------

// BenchmarkDiurnalArrivals measures the workload generator.
func BenchmarkDiurnalArrivals(b *testing.B) {
	rng := newRand()
	arr := workload.NewArrivals(rng, workload.DiurnalProfile(), 1000,
		time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC))
	now := time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(arr.Next(now))
	}
}

// BenchmarkSectranRoundTrip measures one sealed RPC through the §IV-G1
// SSL-like transport: ECIES request envelope, handler dispatch, pooled
// response encoding, GCM response seal+open.
func BenchmarkSectranRoundTrip(b *testing.B) {
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: time.Millisecond}))
	rng := cryptoutil.NewSeededReader(1)
	srvKeys, _ := cryptoutil.NewKeyPair(rng)
	srv := net.NewNode("server")
	rt := svc.NewRuntime(srv)
	svc.RegisterRaw(rt, "echo", func(_ simnet.Addr, payload []byte) ([]byte, error) {
		return payload, nil
	})
	if err := rt.EnableSealed(srvKeys, rng, "echo"); err != nil {
		b.Fatal(err)
	}
	cli := net.NewNode(geo.Addr(100, 1, 1))
	pub := srvKeys.Public()
	req := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	s.Go(func() {
		for i := 0; i < b.N; i++ {
			if _, err := sectran.Attempt(cli, pub, rng)("server", "echo", req, 10*time.Second); err != nil {
				b.Errorf("call: %v", err)
				return
			}
		}
	})
	s.RunUntil(s.Now().Add(time.Duration(b.N+1) * time.Minute))
}

// --- helpers -------------------------------------------------------------

func newBenchPeer(net *simnet.Network, addr simnet.Addr, cmKeys, own *cryptoutil.KeyPair, rng *cryptoutil.SeededReader, maxChildren int) (*p2p.Peer, error) {
	return p2p.NewPeer(net.NewNode(addr), p2p.Config{
		ChannelID:   "bench",
		ChanMgrKey:  cmKeys.Public(),
		Keys:        own,
		MaxChildren: maxChildren,
		RNG:         rng,
	})
}

func newRand() *mrand.Rand {
	return mrand.New(mrand.NewSource(1))
}

func syntheticCorpus(n int) *feedback.Corpus {
	c := feedback.NewCorpus()
	l := feedback.NewLog()
	start := time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		at := start.Add(time.Duration(i) * (7 * 24 * time.Hour) / time.Duration(n))
		lat := time.Duration(50+i%100) * time.Millisecond
		l.Record(feedback.Join, at, lat, true)
	}
	c.Submit(l)
	for h := 0; h < 168; h++ {
		c.RecordUsers(start.Add(time.Duration(h)*time.Hour), 100+h%24*50)
	}
	return c
}
