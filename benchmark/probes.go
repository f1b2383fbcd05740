package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"p2pdrm/internal/attr"
	"p2pdrm/internal/chserver"
	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/keys"
	"p2pdrm/internal/obs"
	"p2pdrm/internal/p2p"
	"p2pdrm/internal/policy"
	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/stoken"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/ticket"
	"p2pdrm/internal/wire"
)

// Probes time direct calls into each layer's public functions on an idle
// deployment, from outside the program: the P metrics. Each probe runs a
// few batches sized to a target duration and reports the median per-op
// cost, so one slow batch does not move the number. Every batch is a
// span (name, layer, start, end, parent) kept in memory and written to
// spansPath when the probes finish.

const spansPath = "out/benchmark/spans.jsonl"

type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Ops    int    `json:"ops,omitempty"`
}

type prober struct {
	batches int
	target  time.Duration
	viewers int // batch size of the per-viewer probe
	width   int // pending events under sim.deep_fanout_ns
	// values holds each metric's per-batch readings; the runner reports
	// their median, min and max.
	values map[string][]float64
	spans  []span
}

// batchCost is one batch's per-op cost.
type batchCost struct{ ns, allocs, bytes float64 }

// addSpan records a span; the layer is the part of its metric's name
// (the span's own, or its parent's for a batch) before the dot.
func (p *prober) addSpan(name, parent string, start, end time.Time, ops int) {
	owner := parent
	if parent == "probes" || parent == "" {
		owner = name
	}
	layer, _, _ := strings.Cut(owner, ".")
	if name == "probes" {
		layer = "harness"
	}
	p.spans = append(p.spans, span{Name: name, Layer: layer, Start: start.UnixNano(), End: end.UnixNano(), Parent: parent, Ops: ops})
}

// timeBatch runs one prepared batch of n ops inside a span.
func (p *prober) timeBatch(name, parent string, n int, run func()) batchCost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	run()
	end := time.Now()
	runtime.ReadMemStats(&m1)
	p.addSpan(name, parent, start, end, n)
	ops := float64(n)
	return batchCost{
		ns:     float64(end.Sub(start)) / ops,
		allocs: float64(m1.Mallocs-m0.Mallocs) / ops,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / ops,
	}
}

// measure times metric's batches. prepare(n) does the untimed set-up for
// a batch of n ops and returns the timed part. The batch size grows
// until one batch lasts the target duration.
func (p *prober) measure(metric string, prepare func(n int) (run func())) []batchCost {
	probeStart := time.Now()
	n := 1
	for {
		run := prepare(n)
		start := time.Now()
		run()
		took := time.Since(start)
		if took >= p.target || n >= 1<<30 {
			break
		}
		// Aim 20 % past the target, growing at most 100× per step.
		grow := 100.0
		if took > 0 {
			grow = min(grow, 1.2*float64(p.target)/float64(took))
		}
		n = max(n+1, int(float64(n)*grow))
	}
	costs := make([]batchCost, p.batches)
	for i := range costs {
		costs[i] = p.timeBatch(fmt.Sprintf("%s#%d", metric, i), metric, n, prepare(n))
	}
	p.addSpan(metric, "probes", probeStart, time.Now(), 0)
	return costs
}

// record files one reading per batch under metric.
func (p *prober) record(metric string, costs []batchCost, value func(batchCost) float64) {
	for _, c := range costs {
		p.values[metric] = append(p.values[metric], value(c))
	}
}

func nsPerOp(c batchCost) float64 { return c.ns }

// ns measures metric and records its ns/op.
func (p *prober) ns(metric string, prepare func(n int) (run func())) {
	p.record(metric, p.measure(metric, prepare), nsPerOp)
}

// each adapts a plain per-op function to measure.
func each(op func()) func(n int) func() {
	return func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				op()
			}
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err) // probes run on fixed valid inputs; an error is a bug
	}
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

var probeEpoch = time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)

// runProbes is `benchmark child probes`: it prints the per-batch readings
// and writes the spans.
func runProbes(quick bool, stdout io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe failed: %v", r)
		}
	}()
	// 5 × 100 ms per probe keeps the whole set near 25 s, so a traced
	// week_diurnal run (three timed calls plus the probes) stays well
	// inside the driver's 180 s per-run limit on a slower host.
	p := &prober{batches: 5, target: 100 * time.Millisecond, viewers: 300, width: 524288, values: map[string][]float64{}}
	if quick {
		p.batches, p.target, p.viewers, p.width = 2, time.Millisecond, 6, 4096
	}
	start := time.Now()
	p.cryptoProbes()
	p.codecProbes()
	p.simProbes()
	p.rpcProbes()
	p.overlayProbes()
	p.obsProbes()
	p.deployProbe()
	p.viewerProbe()
	p.addSpan("probes", "", start, time.Now(), 0)

	if err := writeSpans(spansPath, p.spans); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(childReport{Workload: "probes", Batches: p.values})
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// cryptoProbes covers cryptoutil, ticket, keys, stoken and policy: the
// pure functions the managers and peers call per request or per packet.
func (p *prober) cryptoProbes() {
	rng := cryptoutil.NewSeededReader(1)
	mgr := must(cryptoutil.NewKeyPair(rng))
	cli := must(cryptoutil.NewKeyPair(rng))
	msg := make([]byte, 200) // about one signed ticket body
	sig := mgr.Sign(msg)
	pub := mgr.Public()
	p.ns("cryptoutil.sign_ns", each(func() { mgr.Sign(msg) }))
	p.ns("cryptoutil.verify_ns", each(func() {
		if !pub.VerifySig(msg, sig) {
			panic("signature rejected")
		}
	}))
	session := make([]byte, cryptoutil.SymKeySize)
	p.ns("cryptoutil.ecies_ns", each(func() {
		ct := must(cryptoutil.Seal(rng, cli.Public(), session))
		must(cli.Open(ct))
	}))
	sealer := must(cryptoutil.NewSymKey(rng)).Sealer()
	payload, aad := make([]byte, 256), []byte("probe")
	p.ns("cryptoutil.sym_ns", each(func() {
		ct := must(sealer.Seal(rng, payload, aad))
		must(sealer.Open(ct, aad))
	}))

	ct := &ticket.ChannelTicket{
		UserIN: 1, ChannelID: "probe", NetAddr: "r100.as1.h1", ClientKey: cli.Public(),
		Start: time.Unix(0, 0), Expiry: time.Unix(3600, 0),
	}
	blob := ticket.SignChannel(ct, mgr)
	p.ns("ticket.verify_cold_ns", each(func() { must(ticket.VerifyChannel(blob, pub)) }))
	v := ticket.NewVerifier(0)
	p.ns("ticket.verify_warm_ns", each(func() { must(v.VerifyChannel(blob, pub)) }))

	ck := must(keys.NewSchedule(rng)).Current()
	ps := keys.NewPacketSealer(ck)
	ring := keys.NewRing(4)
	ring.Add(ck)
	pkt := must(ps.Seal(rng, payload, aad))
	p.ns("keys.seal_packet_ns", each(func() { must(ps.Seal(rng, payload, aad)) }))
	p.ns("keys.open_packet_ns", each(func() { must(keys.OpenPacket(ring, pkt, aad)) }))

	tok := stoken.New([]byte("probe-secret"))
	state := make([]byte, 64)
	p.ns("stoken.seal_open_ns", each(func() {
		must(tok.Open(tok.Seal(state, probeEpoch.Add(time.Minute)), probeEpoch))
	}))

	ch := core.FreeToView("x", "X", "100", "200", "300")
	boAttr, boRule := policy.Blackout(time.Unix(100, 0), time.Unix(200, 0), 100, time.Unix(0, 0))
	ch.Attrs = append(ch.Attrs, boAttr)
	ch.Rules = append(ch.Rules, boRule)
	user := attr.List{{Name: attr.NameRegion, Value: "200"}, {Name: attr.NameSubscription, Value: "gold"}}
	p.ns("policy.evaluate_ns", each(func() {
		if ch.EvaluateUser(user, time.Unix(50, 0)).Effect != policy.Accept {
			panic("policy rejected")
		}
	}))
}

// codecProbes round-trips the login messages and one content push.
func (p *prober) codecProbes() {
	l1 := &wire.Login1Req{Email: "user00001@example.com", ClientKey: make([]byte, 64), Version: 1}
	l1r := &wire.Login1Resp{Sealed: make([]byte, 60), Token: make([]byte, 96)}
	l2 := &wire.Login2Req{Email: l1.Email, Token: l1r.Token, Nonce: make([]byte, 16), Checksum: make([]byte, 32), Sig: make([]byte, 64)}
	l2r := &wire.Login2Resp{UserTicket: make([]byte, 300), ServerTime: probeEpoch, MinVersion: 1}
	p.ns("wire.login_codec_ns", each(func() {
		must(wire.DecodeLogin1Req(l1.Encode()))
		must(wire.DecodeLogin1Resp(l1r.Encode()))
		must(wire.DecodeLogin2Req(l2.Encode()))
		must(wire.DecodeLogin2Resp(l2r.Encode()))
	}))
	push := &wire.ContentPush{ChannelID: "live", Substream: 1, Seq: 7, Packet: make([]byte, 285)}
	p.ns("wire.content_codec_ns", each(func() { must(wire.DecodeContentPush(push.Encode())) }))
}

// simProbes measures the engine's per-event costs.
func (p *prober) simProbes() {
	p.ns("sim.event_ns", func(n int) func() {
		s := sim.New(probeEpoch, 1)
		fired := 0
		var fn func()
		fn = func() {
			if fired++; fired < n {
				s.After(time.Millisecond, fn)
			}
		}
		s.After(time.Millisecond, fn)
		return s.Run
	})
	p.ns("sim.sleep_ns", func(n int) func() {
		s := sim.New(probeEpoch, 1)
		s.Go(func() {
			for i := 0; i < n; i++ {
				s.Sleep(time.Millisecond)
			}
		})
		return s.Run
	})
	p.ns("sim.timer_stop_ns", func(n int) func() {
		s := sim.New(probeEpoch, 1)
		return func() {
			for i := 0; i < n; i++ {
				s.After(time.Hour, func() {}).Stop()
			}
		}
	})
	// width events pending at all times, delays spread over every wheel
	// level (1 ms to ~10 min): the state a megascale run schedules into.
	p.ns("sim.deep_fanout_ns", func(n int) func() {
		s := sim.New(probeEpoch, 1)
		delay := func(i int) time.Duration {
			return time.Millisecond + time.Duration(i*2654435761%600_000)*time.Millisecond
		}
		fired := 0
		var fn func()
		fn = func() {
			if fired++; fired == n {
				s.Stop()
				return
			}
			s.After(delay(fired), fn)
		}
		for i := 0; i < p.width; i++ {
			s.After(delay(i), fn)
		}
		return s.Run
	})
}

// rpcProbes measures one round trip over the simulated link, raw
// (simnet) and through the typed service runtime (svc).
func (p *prober) rpcProbes() {
	newPair := func() (*sim.Scheduler, *simnet.Node, *svc.Runtime) {
		s := sim.New(probeEpoch, 1)
		net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: time.Millisecond}))
		return s, net.NewNode("client"), svc.NewRuntime(net.NewNode("server"))
	}
	req := make([]byte, 64)
	rpc := p.measure("simnet.rpc_ns", func(n int) func() {
		s, cli, rt := newPair()
		svc.RegisterRaw(rt, "echo", func(_ simnet.Addr, payload []byte) ([]byte, error) { return payload, nil })
		s.Go(func() {
			for i := 0; i < n; i++ {
				must(cli.Call("server", "echo", req, 10*time.Second))
			}
			s.Stop()
		})
		return s.Run
	})
	p.record("simnet.rpc_ns", rpc, nsPerOp)
	p.record("simnet.rpc_allocs", rpc, func(c batchCost) float64 { return c.allocs })

	l1 := &wire.Login1Req{Email: "user00001@example.com", ClientKey: make([]byte, 64), Version: 1}
	l1r := &wire.Login1Resp{Sealed: make([]byte, 60), Token: make([]byte, 96)}
	p.ns("svc.invoke_ns", func(n int) func() {
		s, cli, rt := newPair()
		svc.Register(rt, wire.SvcLogin1, wire.DecodeLogin1Req,
			func(simnet.Addr, *wire.Login1Req) (*wire.Login1Resp, error) { return l1r, nil })
		t := svc.Plain{Node: cli, Timeout: 10 * time.Second}
		s.Go(func() {
			for i := 0; i < n; i++ {
				must(svc.Invoke(t, "server", wire.SvcLogin1, l1, wire.DecodeLogin1Resp))
			}
			s.Stop()
		})
		return s.Run
	})
}

// overlayProbes measures the relay cost per edge under a root with 16
// children: one content packet (seal once, relay, receive, dedup,
// decrypt) and one key push (re-seal per child session).
func (p *prober) overlayProbes() {
	const children = 16
	build := func() (*sim.Scheduler, *chserver.Server) {
		s := sim.New(probeEpoch, 1)
		net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: time.Millisecond}))
		rng := cryptoutil.NewSeededReader(11)
		cmKeys := must(cryptoutil.NewKeyPair(rng))
		srv := must(chserver.New(net.NewNode("root.probe"), chserver.Config{
			ChannelID: "probe", ChanMgrKey: cmKeys.Public(), Keys: must(cryptoutil.NewKeyPair(rng)),
			PacketSize: 1024, Substreams: 1, MaxChildren: children, RNG: rng,
		}))
		for i := 0; i < children; i++ {
			addr := geo.Addr(100, 1, i+1)
			kp := must(cryptoutil.NewKeyPair(rng))
			peer := must(p2p.NewPeer(net.NewNode(addr), p2p.Config{
				ChannelID: "probe", ChanMgrKey: cmKeys.Public(), Keys: kp, RNG: rng,
			}))
			peer.SetTicket(ticket.SignChannel(&ticket.ChannelTicket{
				UserIN: uint64(i + 1), ChannelID: "probe", NetAddr: string(addr),
				ClientKey: kp.Public(), Start: s.Now(), Expiry: s.Now().Add(24 * 365 * time.Hour),
			}, cmKeys))
			s.Go(func() { check(peer.JoinParent("root.probe", nil, 0)) })
		}
		s.RunUntil(s.Now().Add(time.Second)) // complete the joins
		srv.Peer().InjectKey(srv.CurrentKey())
		s.RunUntil(s.Now().Add(time.Second)) // distribute the key
		return s, srv
	}
	perEdge := func(metric string, op func(*chserver.Server)) {
		costs := p.measure(metric, func(n int) func() {
			s, srv := build()
			s.Go(func() {
				for i := 0; i < n; i++ {
					op(srv)
					s.Sleep(5 * time.Millisecond) // drain deliveries before the next op
				}
				s.Stop()
			})
			return s.Run
		})
		p.record(metric, costs, func(c batchCost) float64 { return c.ns / children })
	}
	perEdge("p2p.content_edge_ns", func(srv *chserver.Server) { srv.EmitOne() })
	perEdge("p2p.key_edge_ns", func(srv *chserver.Server) { must(srv.ForceRekey()) })
}

func (p *prober) obsProbes() {
	var h obs.Histogram
	d := 137 * time.Millisecond
	p.ns("obs.hist_observe_ns", each(func() { h.Observe(d) }))

	sp := obs.NewSampler(time.Minute)
	sp.Stream(obs.NewCSVSink(io.Discard)) // streamed rows are not retained
	sp.AddSource(func(add func(string, float64)) {
		for _, col := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
			add(col, 1)
		}
	})
	now := probeEpoch
	p.ns("obs.sample_ns", each(func() {
		now = now.Add(time.Minute)
		sp.Sample(now)
	}))
}

func idleSystem() *core.System {
	return must(core.NewSystem(core.Options{Seed: 1, PacketInterval: 24 * 365 * time.Hour}))
}

// deployProbe times building the week's deployment shape: a full system
// plus 24 channels.
func (p *prober) deployProbe() {
	costs := p.measure("core.deploy_ms", each(func() {
		sys := idleSystem()
		for i := 0; i < 24; i++ {
			id := fmt.Sprintf("ch%03d", i)
			check(sys.DeployChannel(core.FreeToView(id, "Channel "+id, "100")))
		}
	}))
	p.record("core.deploy_ms", costs, func(c batchCost) float64 { return c.ns / 1e6 })
}

// viewerProbe is the per-real-viewer row: what one viewer costs the host
// at each step of its life on an otherwise idle deployment. Each batch
// builds a fresh system and takes `viewers` viewers through register →
// construct → Login → Watch, timing each phase on its own.
func (p *prober) viewerProbe() {
	phases := []string{"core.register_user", "core.new_client", "client.login", "client.watch"}
	costs := map[string][]batchCost{}
	var retained []float64
	probeStart := time.Now()
	for b := 0; b < p.batches; b++ {
		sys := idleSystem()
		check(sys.DeployChannel(core.FreeToView("probe", "Probe", "100")))
		n := p.viewers
		clients := make([]*client.Client, n)
		email := func(i int) string { return fmt.Sprintf("probe%05d@e", i) }
		phase := func(name string, run func()) {
			costs[name] = append(costs[name], p.timeBatch(fmt.Sprintf("%s#%d", name, b), name, n, run))
		}
		phase(phases[0], func() {
			for i := 0; i < n; i++ {
				must(sys.RegisterUser(email(i), "pw"))
			}
		})
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		phase(phases[1], func() {
			for i := range clients {
				clients[i] = must(sys.NewClient(email(i), "pw", geo.Addr(100, 1+i%40, i+1), nil))
			}
		})
		runtime.GC()
		runtime.ReadMemStats(&m1)
		retained = append(retained, float64(m1.HeapAlloc-m0.HeapAlloc)/float64(n)/1e3)
		sys.Sched.Go(func() {
			phase(phases[2], func() {
				for _, c := range clients {
					check(c.Login())
				}
			})
			phase(phases[3], func() {
				for _, c := range clients {
					check(c.Watch("probe"))
				}
			})
			sys.Sched.Stop()
		})
		sys.Sched.Run()
	}
	for _, name := range phases {
		p.addSpan(name, "probes", probeStart, time.Now(), 0)
	}
	us := func(c batchCost) float64 { return c.ns / 1e3 }
	allocs := func(c batchCost) float64 { return c.allocs }
	kb := func(c batchCost) float64 { return c.bytes / 1e3 }
	p.record("core.register_user_us", costs[phases[0]], us)
	p.record("core.new_client_us", costs[phases[1]], us)
	p.values["core.new_client_kb"] = retained
	p.record("client.login_host_us", costs[phases[2]], us)
	p.record("client.login_allocs", costs[phases[2]], allocs)
	p.record("client.login_kb", costs[phases[2]], kb)
	p.record("client.watch_host_us", costs[phases[3]], us)
	p.record("client.watch_allocs", costs[phases[3]], allocs)
	p.record("client.watch_kb", costs[phases[3]], kb)
}
