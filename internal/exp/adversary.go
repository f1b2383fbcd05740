package exp

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/conform"
	"p2pdrm/internal/core"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/keys"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/wire"
	"p2pdrm/internal/workload"
)

// AdversaryConfig parameterizes the adversarial DRM scenario: an honest
// audience watches a pay-per-view event while three attacks land in
// sequence — a key-leak re-key storm (the provider force-rotates the
// content key in bursts, §IV-E), a wave of free-riding joiners
// advertising zero serving capacity, and a flood of replayed expired /
// stolen / forged Channel Tickets. The rights-conformance oracle
// (internal/conform) must stay clean throughout: attacks may cost
// capacity or continuity, never rights.
type AdversaryConfig struct {
	Seed int64
	// Viewers is the honest audience size. Default 12; at least 2, because
	// the stolen-ticket replay needs a victim other than viewer 0, whose
	// ticket is the one harvested early and replayed expired.
	Viewers int
	// FaultPartition severs advPartitionShare of honest viewers from the
	// root for advPartitionFor during the freeride phase: their feed must
	// re-parent through other viewers and the conformance verdict must
	// stay clean.
	FaultPartition bool
}

func (c *AdversaryConfig) fill() {
	if c.Viewers <= 0 {
		c.Viewers = 12
	}
	if c.Viewers < 2 {
		c.Viewers = 2
	}
}

const (
	// advFreeRiders zero-capacity joiners arrive in the freeride phase.
	advFreeRiders = 6
	// advAttackers replay nodes act in the replay phase; each sends
	// advReplayPerAttacker expired-ticket joins plus one stolen-ticket
	// and one forged-ticket join.
	advAttackers         = 5
	advReplayPerAttacker = 3
	// advPhaseLen is the length of each phase (baseline, keyleak,
	// freeride, replay).
	advPhaseLen = 75 * time.Second
	// advStormRekeys forced rotations spaced advStormEvery apart make up
	// the key-leak storm.
	advStormRekeys = 7
	advStormEvery  = 5 * time.Second
	// advTicketLifetime bounds Channel Tickets; short, so blobs harvested
	// in the baseline phase are expired by the replay phase.
	advTicketLifetime = 90 * time.Second

	advPartitionShare = 0.25
	advPartitionFor   = 20 * time.Second
)

// AdversaryResult reports the scenario outcome.
type AdversaryResult struct {
	Viewers    int
	FreeRiders int
	Attackers  int
	Frames     int64 // live frames delivered to the honest audience

	// Key-leak storm.
	ForcedRekeys int
	StormFails   int64 // decrypt failures inside the storm phase (races)

	// Free-riding wave: peer-side refusals and admits aggregated over
	// every serving peer, client-side typed watch failures, and how many
	// free-riders ended up watching.
	FreeRiderRefusals  int64
	FreeRiderAdmits    int64
	FreeRiderDenied    map[string]int64
	FreeRidersWatching int

	// Replay flood: every attempt must come back typed, none accepted.
	ReplayAttempts int64
	ReplayAccepted int64
	ReplayOutcomes map[string]int64 // by wire code name

	Partitioned int

	Ring    keys.RingStats
	Conform *conform.Report

	Artifacts
}

// Fingerprint digests every counter into one line; two runs with the
// same seed must match byte-for-byte.
func (r *AdversaryResult) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v=%d fr=%d atk=%d frames=%d rekeys=%d stormfail=%d",
		r.Viewers, r.FreeRiders, r.Attackers, r.Frames, r.ForcedRekeys, r.StormFails)
	fmt.Fprintf(&b, " frref=%d fradm=%d frwatch=%d",
		r.FreeRiderRefusals, r.FreeRiderAdmits, r.FreeRidersWatching)
	for _, code := range sortedKeys(r.FreeRiderDenied) {
		fmt.Fprintf(&b, " frdeny.%s=%d", code, r.FreeRiderDenied[code])
	}
	fmt.Fprintf(&b, " replay=%d acc=%d", r.ReplayAttempts, r.ReplayAccepted)
	for _, code := range sortedKeys(r.ReplayOutcomes) {
		fmt.Fprintf(&b, " rep.%s=%d", code, r.ReplayOutcomes[code])
	}
	fmt.Fprintf(&b, " part=%d ring=%d/%d/%d/%d", r.Partitioned, r.Ring.Lookups,
		r.Ring.Misses, r.Ring.MissesEvicted, r.Ring.MissesInWindow)
	fmt.Fprintf(&b, " conform[%s]", r.Conform.Summary())
	fmt.Fprintf(&b, " sent=%d drop=%d", r.Net.Sent, r.Net.Dropped)
	for _, name := range sortedCallNames(r.Calls) {
		s := r.Calls[name]
		fmt.Fprintf(&b, " %s=%d/%d/%d/%d", name, s.Attempts, s.Retries, s.Failures, s.Overloads)
	}
	return b.String()
}

// RunAdversary runs the adversarial DRM scenario.
func RunAdversary(cfg AdversaryConfig) (*AdversaryResult, error) {
	cfg.fill()
	// Grace covers the overlay's eviction slack (see RunTimeShift); the
	// natural rekey interval is pushed past the run so the storm owns
	// every rotation.
	oracle := conform.New(conform.Config{Grace: 12 * time.Second, MaxViolations: 64})
	var r *run
	r, err := newRun(cfg.Seed, core.Options{
		Partitions:            []string{"live"},
		RekeyInterval:         10 * time.Minute,
		PacketInterval:        time.Second,
		RootRegion:            100,
		RootMaxChildren:       4, // a real tree: most viewers peer off other viewers
		ChannelTicketLifetime: advTicketLifetime,
		OnRekey: func(_ string, serial keys.Serial) {
			oracle.RecordRekey(serial, r.sys.Sched.Now())
		},
	}, 4*advPhaseLen, drain)
	if err != nil {
		return nil, err
	}
	sys, start := r.sys, r.start
	phase := func(n int) time.Time { return start.Add(time.Duration(n) * advPhaseLen) }
	eventEnd := r.deadline.Add(10 * time.Minute)

	if err := sys.DeployChannel(core.PPVChannel("ppv", "PPV Event", "evt", start, eventEnd, "100")); err != nil {
		return nil, err
	}
	rootAddr := sys.Servers["ppv"].Addr()

	var mu sync.Mutex
	res := &AdversaryResult{
		Viewers:         cfg.Viewers,
		FreeRiders:      advFreeRiders,
		Attackers:       advAttackers,
		FreeRiderDenied: make(map[string]int64),
		ReplayOutcomes:  make(map[string]int64),
	}
	r.observe([]phaseBoundary{
		{Name: "baseline", At: start},
		{Name: "keyleak", At: phase(1)},
		{Name: "freeride", At: phase(2)},
		{Name: "replay", At: phase(3)},
	})

	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	arrive := workload.FlashCrowd(rng, cfg.Viewers, 20*time.Second)
	for _, off := range workload.FlashCrowd(rng, advFreeRiders, 20*time.Second) {
		arrive = append(arrive, 2*advPhaseLen+off) // riders come in the freeride phase
	}

	// Chaos knob: sever a share of honest viewers from the root during
	// the freeride phase; their feed must re-parent through other viewers.
	if cfg.FaultPartition {
		res.Partitioned = r.partition(rng, cfg.Viewers, advPartitionShare, rootAddr,
			phase(2).Add(35*time.Second), advPartitionFor)
	}

	stormStart, stormEnd := phase(1), phase(2)
	for i := 0; i < cfg.Viewers+advFreeRiders; i++ {
		rider := i >= cfg.Viewers
		name := fmt.Sprintf("adv%03d@e", i)
		if rider {
			name = fmt.Sprintf("rider%03d@e", i-cfg.Viewers)
		}
		c, err := r.viewer(name, func(cc *client.Config) {
			if rider {
				cc.PeerCapacity = -1 // declared free-rider
			}
			cc.OnFrame = func(seq uint64, _ []byte) {
				mu.Lock()
				res.Frames++
				mu.Unlock()
			}
			cc.OnDecrypt = func(serial keys.Serial, seq uint64, err error) {
				now := sys.Sched.Now()
				oracle.RecordDecrypt(name, serial, seq, now, err == nil)
				if err != nil && !now.Before(stormStart) && now.Before(stormEnd) {
					mu.Lock()
					res.StormFails++
					mu.Unlock()
				}
			}
		})
		if err != nil {
			return nil, err
		}
		// Free-riders hold real rights — their attack is on capacity, not
		// entitlement; refusing them is resource policy, not DRM.
		if err := sys.PurchasePPV(name, "evt", start, eventEnd); err != nil {
			return nil, err
		}
		oracle.AddRight(name, start, eventEnd)

		r.session(c, arrive[i], "ppv", sessionHooks{
			watching: func(time.Duration) { oracle.RecordAdmit(name, sys.Sched.Now(), ticketExpiry(c)) },
			failed: func(err error) bool {
				var serr *wire.ServiceError
				if !errors.As(err, &serr) {
					return false
				}
				oracle.RecordDeny(name, sys.Sched.Now(), serr.Code)
				if rider {
					mu.Lock()
					res.FreeRiderDenied[serr.Code.String()]++
					mu.Unlock()
				}
				return serr.Code == wire.CodeDenied // rights refused — final
			},
		})
	}

	// Key-leak storm: the provider's emergency response to a leaked
	// content key — forced rotations with no advance distribution.
	for k := 0; k < advStormRekeys; k++ {
		sys.Sched.At(phase(1).Add(3*time.Second+time.Duration(k)*advStormEvery), func() {
			if _, err := sys.Servers["ppv"].ForceRekey(); err == nil {
				mu.Lock()
				res.ForcedRekeys++
				mu.Unlock()
			}
		})
	}

	// Harvest a Channel Ticket blob early; by the replay phase it is
	// expired and every replay of it must be refused with the typed code.
	var staleBlob []byte
	sys.Sched.At(start.Add(35*time.Second), func() {
		if b := r.clients[0].ChannelTicketBlob(); len(b) > 0 {
			staleBlob = append([]byte(nil), b...)
		}
	})

	// Replay flood: attacker nodes present expired, stolen, and forged
	// tickets straight at the root's join endpoint.
	frng := rand.New(rand.NewSource(cfg.Seed + 7))
	garbage := make([]byte, 64)
	frng.Read(garbage)
	for a := 0; a < advAttackers; a++ {
		a := a
		node := sys.Net.NewNode(geo.Addr(100, 90, 500+a))
		sys.Sched.At(phase(3).Add(5*time.Second+time.Duration(a)*2*time.Second), func() {
			sys.Sched.Go(func() {
				rawJoin := func(blob []byte) {
					mu.Lock()
					res.ReplayAttempts++
					mu.Unlock()
					req := &wire.JoinReq{ChannelTicket: blob, Capacity: 4}
					t := svc.Plain{Node: node, Timeout: 10 * time.Second}
					resp, err := svc.Invoke(t, rootAddr, wire.SvcJoin, req, wire.DecodeJoinResp)
					mu.Lock()
					defer mu.Unlock()
					switch {
					case err != nil:
						res.ReplayOutcomes["transport_error"]++
					case resp.Accept:
						res.ReplayAccepted++
					default:
						res.ReplayOutcomes[resp.Code.String()]++
					}
				}
				for n := 0; n < advReplayPerAttacker; n++ {
					rawJoin(staleBlob) // expired: harvested in baseline
					sys.Sched.Sleep(3 * time.Second)
				}
				// Stolen: a live viewer's current ticket from our address.
				if b := r.clients[1+a%(cfg.Viewers-1)].ChannelTicketBlob(); len(b) > 0 {
					rawJoin(append([]byte(nil), b...))
				}
				rawJoin(garbage) // forged
			})
		})
	}

	res.Artifacts = r.finish()

	// Peer-side free-rider accounting: every serving peer, root included.
	rs := sys.Servers["ppv"].Peer().Stats()
	res.FreeRiderRefusals += rs.FreeRidersRefused
	res.FreeRiderAdmits += rs.FreeRiderJoins
	for i, c := range r.clients {
		if p := c.Peer(); p != nil {
			ps := p.Stats()
			res.FreeRiderRefusals += ps.FreeRidersRefused
			res.FreeRiderAdmits += ps.FreeRiderJoins
			res.Ring.Add(p.Ring().Stats())
			if i >= cfg.Viewers && c.Watching() != "" {
				res.FreeRidersWatching++
			}
		}
	}
	res.Conform = oracle.Finish()
	return res, nil
}

// RenderAdversary prints the scenario: per-attack outcomes and the
// conformance verdict.
func RenderAdversary(res *AdversaryResult) string {
	var b strings.Builder
	b.WriteString("Adversarial DRM — re-key storm, free-riders, ticket replay\n")
	fmt.Fprintf(&b, "  honest viewers %d — %d live frames delivered\n", res.Viewers, res.Frames)
	if res.Partitioned > 0 {
		fmt.Fprintf(&b, "  chaos: %d viewers partitioned from the root mid-run\n", res.Partitioned)
	}
	fmt.Fprintf(&b, "  key-leak storm: %d forced rotations, %d decrypt races absorbed\n",
		res.ForcedRekeys, res.StormFails)
	fmt.Fprintf(&b, "  free-riders: %d arrived, %d joins refused (contributor reservation), %d admitted, %d watching\n",
		res.FreeRiders, res.FreeRiderRefusals, res.FreeRiderAdmits, res.FreeRidersWatching)
	for _, code := range sortedKeys(res.FreeRiderDenied) {
		fmt.Fprintf(&b, "    watch refused: %s ×%d\n", code, res.FreeRiderDenied[code])
	}
	fmt.Fprintf(&b, "  replay flood: %d joins presented, %d accepted\n", res.ReplayAttempts, res.ReplayAccepted)
	for _, code := range sortedKeys(res.ReplayOutcomes) {
		fmt.Fprintf(&b, "    refused: %s ×%d\n", code, res.ReplayOutcomes[code])
	}
	cr := res.Conform
	renderConform(&b, cr, fmt.Sprintf("rekey races %d, settle %d, window denials %d",
		cr.RekeyRaceDenials, cr.SettleDenials, cr.WindowDenials))
	fmt.Fprintf(&b, "  ring: %d lookups, %d misses (%d evicted / %d in-window)\n",
		res.Ring.Lookups, res.Ring.Misses, res.Ring.MissesEvicted, res.Ring.MissesInWindow)
	fmt.Fprintf(&b, "  network: %d messages sent, %d dropped\n", res.Net.Sent, res.Net.Dropped)
	if len(res.Phases) > 0 {
		b.WriteString(renderPhases(res.Phases))
	}
	b.WriteString("(attacks cost capacity and continuity, never rights: every replayed,\n")
	b.WriteString(" stolen, or forged ticket is refused with a typed code)\n")
	return b.String()
}
