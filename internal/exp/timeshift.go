package exp

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/conform"
	"p2pdrm/internal/core"
	"p2pdrm/internal/keys"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/wire"
	"p2pdrm/internal/workload"
)

// TimeShiftConfig parameterizes the time-shifted-viewing scenario: a
// pay-per-view event whose viewers first watch live, then seek back into
// the root's retained history — uniformly over the whole past, then
// Zipf-skewed toward recent frames. A quarter of the audience bought a
// package that lapses mid-event, exercising the grant-window ticket cap
// end to end. Every decrypt, join, rekey, and refusal feeds the
// rights-conformance oracle (internal/conform), which must report zero
// false grants and zero false denials; key availability vs seek depth is
// the scenario's figure — frames older than the ring window fetch fine
// but no longer decrypt (§IV-E forward secrecy working at the viewer).
type TimeShiftConfig struct {
	Seed int64
	// Viewers is the audience size. Default 16.
	Viewers int
	// FaultPartition severs shiftPartitionShare of viewers from the root
	// for shiftPartitionFor, starting at the seek-uniform boundary: their
	// seeks and live feed fail until the heal and must recover.
	FaultPartition bool
}

func (c *TimeShiftConfig) fill() {
	if c.Viewers <= 0 {
		c.Viewers = 16
	}
}

const (
	// shiftLapsedShare of viewers hold a purchase ending at shiftLapseAfter
	// (mid seek-uniform) instead of covering the whole event.
	shiftLapsedShare = 0.25
	// The phase lengths: live viewing, then uniform seeks, then Zipf
	// seeks (the last two shiftSeekPhase each).
	shiftLivePhase  = 3 * time.Minute
	shiftSeekPhase  = 3 * time.Minute
	shiftLapseAfter = shiftLivePhase + shiftSeekPhase/2
	// shiftRekeyInterval is short, so seeks cross many key iterations.
	shiftRekeyInterval = 30 * time.Second
	// shiftHistoryFrames is the root's retained-frame window.
	shiftHistoryFrames = 600
	// shiftSeekEvery paces each viewer's seek loop.
	shiftSeekEvery = 15 * time.Second

	shiftPartitionShare = 0.25
	shiftPartitionFor   = 20 * time.Second
)

// SeekDepthBucket aggregates seek outcomes at one depth, measured in
// rekey intervals behind the viewer's playhead: within the ring window
// frames open, beyond it the viewer's own ring refuses the serial.
type SeekDepthBucket struct {
	Intervals int // depth in rekey intervals (0 = current interval)
	Frames    int // sealed frames fetched at this depth
	Opened    int // frames that decrypted
	KeyMiss   int // frames refused by the viewer's ring (evicted serial)
}

// TimeShiftResult reports the scenario outcome.
type TimeShiftResult struct {
	Viewers int
	Lapsed  int
	Frames  int64 // live frames delivered across the audience

	SeekCalls   int64
	SeekFrames  int64
	SeekErrors  int64            // transport failures (partition chaos)
	SeekRejects map[string]int64 // typed refusals by wire code name

	// PostLapseDenies counts lapsed viewers' re-watch probes refused with
	// the typed policy denial after their purchase window closed.
	PostLapseDenies int
	Partitioned     int

	Buckets []SeekDepthBucket
	Ring    keys.RingStats // aggregated over all viewers' rings
	Conform *conform.Report

	Artifacts
}

// fingerprint digests every counter into one line; two runs with the
// same seed must match byte-for-byte.
func (r *TimeShiftResult) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v=%d lapsed=%d frames=%d seeks=%d sframes=%d serr=%d deny=%d part=%d",
		r.Viewers, r.Lapsed, r.Frames, r.SeekCalls, r.SeekFrames, r.SeekErrors,
		r.PostLapseDenies, r.Partitioned)
	for _, code := range sortedKeys(r.SeekRejects) {
		fmt.Fprintf(&b, " rej.%s=%d", code, r.SeekRejects[code])
	}
	for _, bk := range r.Buckets {
		fmt.Fprintf(&b, " d%d=%d/%d/%d", bk.Intervals, bk.Frames, bk.Opened, bk.KeyMiss)
	}
	fmt.Fprintf(&b, " ring=%d/%d/%d/%d", r.Ring.Lookups, r.Ring.Misses,
		r.Ring.MissesEvicted, r.Ring.MissesInWindow)
	fmt.Fprintf(&b, " conform[%s]", r.Conform.Summary())
	fmt.Fprintf(&b, " sent=%d drop=%d", r.Net.Sent, r.Net.Dropped)
	for _, name := range sortedCallNames(r.Calls) {
		s := r.Calls[name]
		fmt.Fprintf(&b, " %s=%d/%d/%d/%d", name, s.Attempts, s.Retries, s.Failures, s.Overloads)
	}
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RunTimeShift runs the time-shifted viewing scenario.
func RunTimeShift(cfg TimeShiftConfig) (*TimeShiftResult, error) {
	cfg.fill()
	// The oracle's default grace covers the overlay's eviction slack: a
	// lapsed child keeps receiving until expiry + p2p's expiryGrace (10s)
	// + one delivery round, and only then is severed (§IV-D).
	oracle := conform.New(conform.Config{MaxViolations: 64})
	var r *run
	r, err := newRun(cfg.Seed, scenarioTraceCap, core.Options{
		Partitions:      []string{"live"},
		RekeyInterval:   shiftRekeyInterval,
		PacketInterval:  time.Second,
		RootRegion:      100,
		RootMaxChildren: 2 * cfg.Viewers, // every viewer can sit at the root
		HistoryWindow:   shiftHistoryFrames,
		OnRekey: func(_ string, serial keys.Serial) {
			oracle.RecordRekey(serial, r.sys.Sched.Now())
		},
	}, shiftLivePhase+2*shiftSeekPhase, drain)
	if err != nil {
		return nil, err
	}
	sys, start, deadline := r.sys, r.start, r.deadline
	lapseEnd := start.Add(shiftLapseAfter)
	eventEnd := deadline.Add(10 * time.Minute)

	if err := sys.DeployChannel(core.PPVChannel("ppv", "PPV Event", "evt", start, eventEnd, "100")); err != nil {
		return nil, err
	}
	rootAddr := sys.Servers["ppv"].Addr()

	lapsed := int(float64(cfg.Viewers) * shiftLapsedShare)
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	offsets := workload.FlashCrowd(rng, cfg.Viewers, 30*time.Second)

	// Chaos knob: sever a viewer subset from the root across the
	// live→seek boundary. Their live feed stalls and their seeks fail at
	// the transport until the heal; session recovery must carry them.
	partitioned := 0
	if cfg.FaultPartition {
		partitioned = r.partition(rng, cfg.Viewers, shiftPartitionShare, rootAddr,
			start.Add(shiftLivePhase), shiftPartitionFor)
	}
	r.observe([]phaseBoundary{
		{Name: "live", At: start},
		{Name: "seek-uniform", At: start.Add(shiftLivePhase)},
		{Name: "seek-zipf", At: start.Add(shiftLivePhase + shiftSeekPhase)},
	})

	var mu sync.Mutex
	lastSeq := make([]uint64, cfg.Viewers)
	res := &TimeShiftResult{
		Viewers:     cfg.Viewers,
		Lapsed:      lapsed,
		Partitioned: partitioned,
		SeekRejects: make(map[string]int64),
	}
	buckets := make(map[int]*SeekDepthBucket)

	totalFrames := uint64(deadline.Sub(start) / time.Second)
	for i := 0; i < cfg.Viewers; i++ {
		i := i
		name := fmt.Sprintf("ts%03d@e", i)
		c, err := r.viewer(name, func(cc *client.Config) {
			cc.OnFrame = func(seq uint64, _ []byte) {
				mu.Lock()
				res.Frames++
				if seq > lastSeq[i] {
					lastSeq[i] = seq
				}
				mu.Unlock()
			}
			cc.OnDecrypt = func(serial keys.Serial, seq uint64, err error) {
				oracle.RecordDecrypt(name, serial, seq, sys.Sched.Now(), err == nil)
			}
		})
		if err != nil {
			return nil, err
		}
		end := eventEnd
		if i < lapsed {
			end = lapseEnd
		}
		if err := sys.PurchasePPV(name, "evt", start, end); err != nil {
			return nil, err
		}
		oracle.AddRight(name, start, end)

		// Session: arrive, log in, watch; exit on a typed policy denial
		// (rights gone — expected for lapsed viewers).
		r.session(c, offsets[i], "ppv", sessionHooks{
			watching: func(time.Duration) { oracle.RecordAdmit(name, sys.Sched.Now(), ticketExpiry(c)) },
			failed: func(err error) bool {
				var serr *wire.ServiceError
				if errors.As(err, &serr) && serr.Code == wire.CodeDenied {
					oracle.RecordDeny(name, sys.Sched.Now(), serr.Code)
					return true
				}
				return false
			},
		})

		// Seek loop: from the uniform boundary on, fetch history from the
		// root — uniform targets over the whole past first, then
		// Zipf-skewed depths. A viewer whose ticket lapsed keeps probing
		// and collects typed expired-ticket refusals instead of frames.
		sys.Sched.Go(func() {
			srng := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(i)))
			zipf := rand.NewZipf(srng, 1.3, 8, totalFrames)
			sys.Sched.Sleep(shiftLivePhase + time.Duration(i)*time.Second)
			zipfAt := start.Add(shiftLivePhase + shiftSeekPhase)
			for sys.Sched.Now().Before(deadline) {
				mu.Lock()
				head := lastSeq[i]
				mu.Unlock()
				if head > 0 {
					var target uint64
					if sys.Sched.Now().Before(zipfAt) {
						target = uint64(srng.Int63n(int64(head + 1)))
					} else {
						depth := zipf.Uint64()
						if depth > head {
							depth = head
						}
						target = head - depth
					}
					runSeek(sys, oracle, res, buckets, &mu, c, name, rootAddr, head, target)
				}
				sys.Sched.Sleep(shiftSeekEvery + time.Duration(srng.Int63n(int64(5*time.Second))))
			}
		})

		// Post-lapse probe: a lapsed viewer tries a fresh watch after its
		// purchase window closed — every probe must come back with the
		// typed policy denial, never a ticket.
		if i < lapsed {
			sys.Sched.At(lapseEnd.Add(45*time.Second), func() {
				sys.Sched.Go(func() {
					err := c.Watch("ppv")
					var serr *wire.ServiceError
					if errors.As(err, &serr) {
						oracle.RecordDeny(name, sys.Sched.Now(), serr.Code)
						if serr.Code == wire.CodeDenied {
							mu.Lock()
							res.PostLapseDenies++
							mu.Unlock()
						}
					}
				})
			})
		}
	}

	res.Artifacts = r.finish()

	for _, c := range r.clients {
		if p := c.Peer(); p != nil {
			res.Ring.Add(p.Ring().Stats())
		}
	}
	for _, bk := range buckets {
		res.Buckets = append(res.Buckets, *bk)
	}
	sort.Slice(res.Buckets, func(i, j int) bool { return res.Buckets[i].Intervals < res.Buckets[j].Intervals })
	res.Conform = oracle.Finish()
	return res, nil
}

// openSeekFrame scores one retained frame: the key serial it is sealed
// under and whether open, the viewer's ring, authenticates it. A frame
// too short to carry a serial is serial 0, not opened.
func openSeekFrame(open func(wire.HistoryFrame) ([]byte, error), f wire.HistoryFrame) (keys.Serial, bool) {
	if len(f.Packet) == 0 {
		return 0, false
	}
	_, err := open(f)
	return keys.Serial(f.Packet[0]), err == nil
}

// ticketExpiry is the expiry of the client's current Channel Ticket
// (zero when it holds none).
func ticketExpiry(c *client.Client) time.Time {
	if ct := c.ChannelTicket(); ct != nil {
		return ct.Expiry
	}
	return time.Time{}
}

// runSeek performs one seek call against the root and scores each
// returned frame with the viewer's own ring.
func runSeek(sys *core.System, oracle *conform.Oracle, res *TimeShiftResult,
	buckets map[int]*SeekDepthBucket, mu *sync.Mutex, c *client.Client,
	name string, root simnet.Addr, head, target uint64) {
	mu.Lock()
	res.SeekCalls++
	mu.Unlock()
	peer := c.Peer()
	var (
		sframes []wire.HistoryFrame
		err     error
	)
	if peer != nil {
		_, sframes, err = peer.SeekHistory(root, target, 48, 10*time.Second)
	} else {
		// The viewer's overlay peer is gone (lapsed and evicted): probe
		// with the stale ticket directly and collect the typed refusal.
		_, sframes, err = rawSeek(sys, c, root, target)
	}
	if err != nil {
		var serr *wire.ServiceError
		if errors.As(err, &serr) {
			oracle.RecordDeny(name, sys.Sched.Now(), serr.Code)
			mu.Lock()
			res.SeekRejects[serr.Code.String()]++
			mu.Unlock()
		} else {
			mu.Lock()
			res.SeekErrors++
			mu.Unlock()
		}
		return
	}
	now := sys.Sched.Now()
	for _, f := range sframes {
		serial, ok := openSeekFrame(c.DecryptHistoryFrame, f)
		oracle.RecordSeekDecrypt(name, serial, f.Seq, now, ok)
		depth := 0
		if head > f.Seq {
			depth = int(time.Duration(head-f.Seq) * time.Second / shiftRekeyInterval)
		}
		mu.Lock()
		res.SeekFrames++
		bk := buckets[depth]
		if bk == nil {
			bk = &SeekDepthBucket{Intervals: depth}
			buckets[depth] = bk
		}
		bk.Frames++
		if ok {
			bk.Opened++
		} else {
			bk.KeyMiss++
		}
		mu.Unlock()
	}
}

// rawSeek sends a SeekReq with the client's (possibly expired) ticket
// from its own node, outside the peer lifecycle.
func rawSeek(sys *core.System, c *client.Client, root simnet.Addr, target uint64) (*wire.SeekResp, []wire.HistoryFrame, error) {
	blob := c.ChannelTicketBlob()
	if len(blob) == 0 {
		return nil, nil, fmt.Errorf("exp: no ticket to seek with")
	}
	req := &wire.SeekReq{ChannelTicket: blob, FromSeq: target, MaxFrames: 48}
	t := svc.Plain{Node: c.Node(), Timeout: 10 * time.Second}
	resp, err := svc.Invoke(t, root, wire.SvcSeek, req, wire.DecodeSeekResp)
	if err != nil {
		return nil, nil, err
	}
	if !resp.Accept {
		return resp, nil, &wire.ServiceError{Code: resp.Code, Msg: resp.Reason}
	}
	frames := make([]wire.HistoryFrame, 0, len(resp.Frames))
	for _, b := range resp.Frames {
		if f, err := wire.DecodeHistoryFrame(b); err == nil {
			frames = append(frames, *f)
		}
	}
	return resp, frames, nil
}

// RenderTimeShift prints the scenario: seek-depth availability table,
// the conformance verdict, and the typed refusal counts.
func RenderTimeShift(res *TimeShiftResult) string {
	var b strings.Builder
	b.WriteString("Time-shifted viewing — rights conformance and key availability vs seek depth\n")
	fmt.Fprintf(&b, "  viewers %d (%d lapse mid-event) — %d live frames, %d seeks fetched %d frames\n",
		res.Viewers, res.Lapsed, res.Frames, res.SeekCalls, res.SeekFrames)
	if res.Partitioned > 0 {
		fmt.Fprintf(&b, "  chaos: %d viewers partitioned from the root at the seek boundary (%d transport errors)\n",
			res.Partitioned, res.SeekErrors)
	}
	fmt.Fprintf(&b, "  %-28s %8s %8s %8s %9s\n", "seek depth (rekey intervals)", "frames", "opened", "keymiss", "avail")
	for _, bk := range res.Buckets {
		avail := 0.0
		if bk.Frames > 0 {
			avail = float64(bk.Opened) / float64(bk.Frames)
		}
		fmt.Fprintf(&b, "  %-28d %8d %8d %8d %8.0f%%\n", bk.Intervals, bk.Frames, bk.Opened, bk.KeyMiss, 100*avail)
	}
	for _, code := range sortedKeys(res.SeekRejects) {
		fmt.Fprintf(&b, "  seek refusals: %s ×%d\n", code, res.SeekRejects[code])
	}
	fmt.Fprintf(&b, "  post-lapse re-watch probes denied: %d\n", res.PostLapseDenies)
	cr := res.Conform
	renderConform(&b, cr, fmt.Sprintf("grace grants %d, window denials %d, settle %d",
		cr.GraceGrants, cr.WindowDenials, cr.SettleDenials+cr.RekeyRaceDenials))
	fmt.Fprintf(&b, "  ring: %d lookups, %d misses (%d evicted / %d in-window), deepest miss %d\n",
		res.Ring.Lookups, res.Ring.Misses, res.Ring.MissesEvicted, res.Ring.MissesInWindow, res.Ring.DeepestMiss)
	fmt.Fprintf(&b, "  network: %d messages sent, %d dropped\n", res.Net.Sent, res.Net.Dropped)
	if len(res.Phases) > 0 {
		b.WriteString(renderPhases(res.Phases))
	}
	b.WriteString("(frames deeper than the key-ring window fetch fine but no longer decrypt —\n")
	b.WriteString(" forward secrecy bounds time-shifting at the viewer, not at the server)\n")
	return b.String()
}

// renderConform prints the oracle's verdict: the decrypt tally, the
// scenario's line of innocent (explained) refusals, and every violation.
func renderConform(b *strings.Builder, cr *conform.Report, innocent string) {
	fmt.Fprintf(b, "  conformance: %d decrypts (%d ok) — false grants %d, false denials %d, window breaches %d, ticket overruns %d\n",
		cr.Decrypts, cr.DecryptOK, cr.FalseGrants, cr.FalseDenials, cr.WindowBreaches, cr.TicketOverruns)
	fmt.Fprintf(b, "               %s (innocent)\n", innocent)
	if !cr.Clean() {
		b.WriteString("  CONFORMANCE VIOLATIONS:\n")
		for _, v := range cr.Violations {
			fmt.Fprintf(b, "    %s\n", v)
		}
	}
}
