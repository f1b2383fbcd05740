// Package conform is the rights-conformance oracle: an offline observer
// that replays every decrypt, join, and rekey event a scenario recorded
// and asserts, per viewer and per simulated timestamp, that content was
// decryptable exactly when the viewer's rights and ticket window granted
// it (§II DRM requirements, §IV-E forward secrecy):
//
//   - no FALSE GRANT: a decrypt must not succeed outside the viewer's
//     rights windows (beyond a small eviction/propagation grace), and
//     never for a key iteration deeper than the ring window — that would
//     mean forward secrecy failed;
//   - no FALSE DENIAL: a decrypt must not fail while the viewer is
//     entitled, admitted, and the key iteration is inside the ring
//     window — that would mean an entitled viewer lost service;
//   - ticket windows must sit inside the rights that granted them: an
//     admission whose ticket outlives the viewer's rights end is exactly
//     the issue-time-only policy-evaluation hole the grant-window cap
//     closes (see DESIGN.md).
//
// The oracle is deliberately decoupled from the stack under test: it
// learns the key timeline only from rekey events and decides availability
// by replaying ring-window arithmetic itself, so a bug in internal/keys
// cannot hide from it by corrupting its model.
package conform

import (
	"fmt"
	"sort"
	"time"

	"p2pdrm/internal/keys"
	"p2pdrm/internal/wire"
)

// Config parameterizes the oracle's model of the system under test.
type Config struct {
	// Window is the content-key ring window of the deployment under test.
	// Default keys.DefaultWindow.
	Window int
	// Grace is the slack allowed after a rights window closes before a
	// successful decrypt counts as a false grant: frames and keys already
	// in flight at expiry land shortly after it. Set it to at least the
	// deployment's child-eviction slack (p2p Config.ExpiryGrace) plus a
	// delivery round — the overlay severs expired children only at
	// expiry+ExpiryGrace (§IV-D), so frames keep landing until then.
	// Default 5s.
	Grace time.Duration
	// Settle is the slack allowed after admission before a failed decrypt
	// counts as a false denial: key distribution from the parent is one
	// network round behind the join. Default 5s.
	Settle time.Duration
	// MaxViolations caps the detailed violation strings kept (counters
	// are always exact). Default 16.
	MaxViolations int
}

func (c *Config) fill() {
	if c.Window <= 0 {
		c.Window = keys.DefaultWindow
	}
	if c.Grace <= 0 {
		c.Grace = 5 * time.Second
	}
	if c.Settle <= 0 {
		c.Settle = 5 * time.Second
	}
	if c.MaxViolations <= 0 {
		c.MaxViolations = 16
	}
}

// rightsWindow is one rights interval: [Start, End), zero End = unbounded.
type rightsWindow struct {
	Start time.Time
	End   time.Time
}

// contains reports whether t falls inside the window (start inclusive,
// end exclusive — the attr.Attribute.ValidAt convention).
func (w rightsWindow) contains(t time.Time) bool {
	if !w.Start.IsZero() && t.Before(w.Start) {
		return false
	}
	if !w.End.IsZero() && !t.Before(w.End) {
		return false
	}
	return true
}

// rekey is one point on the key timeline.
type rekey struct {
	serial keys.Serial
	at     time.Time
}

// decrypt is one recorded decrypt attempt.
type decrypt struct {
	viewer string
	serial keys.Serial
	seq    uint64
	at     time.Time
	ok     bool
	seek   bool
}

// admit is one accepted overlay join.
type admit struct {
	viewer       string
	at           time.Time
	ticketExpiry time.Time
}

// deny is one refused join or seek.
type deny struct {
	viewer string
	at     time.Time
	code   wire.Code
}

type viewer struct {
	rights []rightsWindow
	admits []time.Time
}

// Oracle accumulates events during a run and judges them in Finish.
// Record methods are cheap appends; all replay logic is offline so the
// oracle never perturbs scenario timing. Not safe for concurrent use —
// the deterministic simulator is single-threaded, matching it.
type Oracle struct {
	cfg      Config
	rekeys   []rekey
	decrypts []decrypt
	admits   []admit
	denies   []deny
	viewers  map[string]*viewer
}

// New builds an oracle.
func New(cfg Config) *Oracle {
	cfg.fill()
	return &Oracle{cfg: cfg, viewers: make(map[string]*viewer)}
}

func (o *Oracle) viewerOf(name string) *viewer {
	v := o.viewers[name]
	if v == nil {
		v = &viewer{}
		o.viewers[name] = v
	}
	return v
}

// AddRight grants the viewer a rights window (multiple windows per viewer
// compose as a union, like multiple Subscription attributes).
func (o *Oracle) AddRight(viewerName string, start, end time.Time) {
	v := o.viewerOf(viewerName)
	v.rights = append(v.rights, rightsWindow{Start: start, End: end})
}

// RecordRekey observes production switching onto a key iteration
// (chserver.Config.OnRekey). Order of calls defines the timeline; the
// 8-bit serial may wrap.
func (o *Oracle) RecordRekey(serial keys.Serial, at time.Time) {
	o.rekeys = append(o.rekeys, rekey{serial: serial, at: at})
}

// RecordAdmit observes an accepted overlay join, with the admitted
// Channel Ticket's expiry (zero if unknown).
func (o *Oracle) RecordAdmit(viewerName string, at, ticketExpiry time.Time) {
	o.viewerOf(viewerName).admits = append(o.viewerOf(viewerName).admits, at)
	o.admits = append(o.admits, admit{viewer: viewerName, at: at, ticketExpiry: ticketExpiry})
}

// RecordDeny observes a refused join or seek with its typed code.
func (o *Oracle) RecordDeny(viewerName string, at time.Time, code wire.Code) {
	o.denies = append(o.denies, deny{viewer: viewerName, at: at, code: code})
}

// RecordDecrypt observes one live-playback decrypt attempt
// (client.Config.OnDecrypt): ok is whether the packet opened.
func (o *Oracle) RecordDecrypt(viewerName string, serial keys.Serial, seq uint64, at time.Time, ok bool) {
	o.decrypts = append(o.decrypts, decrypt{viewer: viewerName, serial: serial, seq: seq, at: at, ok: ok})
}

// RecordSeekDecrypt observes a decrypt attempt on a history frame
// fetched through the seek path (judged like a live decrypt but counted
// separately and bucketed by key depth for the availability figure).
func (o *Oracle) RecordSeekDecrypt(viewerName string, serial keys.Serial, seq uint64, at time.Time, ok bool) {
	o.decrypts = append(o.decrypts, decrypt{viewer: viewerName, serial: serial, seq: seq, at: at, ok: ok, seek: true})
}

// DepthStat aggregates decrypt outcomes at one key depth (0 = current
// iteration, window-1 = oldest ring slot; >= window should never open).
type DepthStat struct {
	Depth    int
	Attempts int
	OK       int
}

// Report is the oracle's verdict over every recorded event.
type Report struct {
	// Decrypts / DecryptOK cover all decrypt events (live + seek).
	Decrypts  int
	DecryptOK int
	// SeekDecrypts / SeekOK are the seek-path subset.
	SeekDecrypts int
	SeekOK       int

	// FalseGrants: decrypt succeeded outside rights (+grace) — violations.
	FalseGrants int
	// WindowBreaches: decrypt succeeded at depth >= window — forward
	// secrecy violations.
	WindowBreaches int
	// FalseDenials: decrypt failed while entitled, admitted (past the
	// settle slack), and the key was inside the window — violations.
	FalseDenials int
	// TicketOverruns: admissions whose ticket expiry outruns every rights
	// window end (+grace) — the issue-time-evaluation hole.
	TicketOverruns int

	// GraceGrants: decrypts that succeeded after rights end but inside
	// the grace slack (expected tail-off, not violations).
	GraceGrants int
	// WindowDenials: failed decrypts explained by ring-window eviction —
	// forward secrecy working as specified.
	WindowDenials int
	// SettleDenials: failed decrypts inside the post-admission settle
	// slack (key distribution in flight, not violations).
	SettleDenials int
	// RekeyRaceDenials: failed decrypts within the settle slack of the
	// serial's own production switch — an emergency ForceRekey forfeits
	// the §IV-E advance-distribution guarantee, so the key push can race
	// the first frames sealed under it (expected during a storm, not a
	// violation).
	RekeyRaceDenials int
	// UnknownSerialDenials: failed decrypts of serials never produced
	// (off-timeline garbage; correct to refuse).
	UnknownSerialDenials int

	// Admits / Denies count join outcomes; DeniedByCode breaks refusals
	// out by typed wire code (snake_case names).
	Admits       int
	Denies       int
	DeniedByCode map[string]int

	// Depths is the per-depth decrypt histogram (seek + live), depth
	// clamped to [0, 2*window), ordered by depth.
	Depths []DepthStat

	// Violations holds the first MaxViolations detailed failures.
	Violations []string
}

// Clean reports whether the run satisfied every rights requirement.
func (r *Report) Clean() bool {
	return r.FalseGrants == 0 && r.FalseDenials == 0 &&
		r.WindowBreaches == 0 && r.TicketOverruns == 0
}

// Summary renders the verdict as one line for fingerprints and logs.
func (r *Report) Summary() string {
	return fmt.Sprintf("decrypts=%d ok=%d falseGrant=%d falseDeny=%d windowBreach=%d ticketOverrun=%d graceGrant=%d windowDeny=%d",
		r.Decrypts, r.DecryptOK, r.FalseGrants, r.FalseDenials, r.WindowBreaches, r.TicketOverruns, r.GraceGrants, r.WindowDenials)
}

// Finish replays every recorded event against the rights model and
// returns the verdict.
func (o *Oracle) Finish() *Report {
	r := &Report{DeniedByCode: make(map[string]int)}
	depths := make([]DepthStat, 2*o.cfg.Window)
	for i := range depths {
		depths[i].Depth = i
	}

	for _, d := range o.denies {
		r.Denies++
		r.DeniedByCode[d.code.String()]++
	}
	for _, a := range o.admits {
		r.Admits++
		v := o.viewers[a.viewer]
		if v == nil || a.ticketExpiry.IsZero() {
			continue
		}
		// The ticket must not outlive the rights in force at admission:
		// find the latest bounded rights end covering the admit instant.
		ok, bounded, end := rightsEndAt(v.rights, a.at)
		if ok && bounded && a.ticketExpiry.After(end.Add(o.cfg.Grace)) {
			r.TicketOverruns++
			o.violate(r, "viewer %s admitted at %s with ticket until %s, rights end %s",
				a.viewer, fmtT(a.at), fmtT(a.ticketExpiry), fmtT(end))
		}
	}

	for _, d := range o.decrypts {
		r.Decrypts++
		if d.seek {
			r.SeekDecrypts++
		}
		v := o.viewers[d.viewer]
		depth, rotAt, known := o.depthAt(d.serial, d.at)
		if known && depth < len(depths) {
			depths[depth].Attempts++
			if d.ok {
				depths[depth].OK++
			}
		}
		entitled, graced := false, false
		if v != nil {
			entitled, _, _ = rightsEndAt(v.rights, d.at)
			if !entitled {
				graced = anyContains(v.rights, d.at.Add(-o.cfg.Grace))
			}
		}
		if d.ok {
			r.DecryptOK++
			if d.seek {
				r.SeekOK++
			}
			switch {
			case known && depth >= o.cfg.Window:
				r.WindowBreaches++
				o.violate(r, "viewer %s opened seq %d serial %d at depth %d >= window %d at %s",
					d.viewer, d.seq, d.serial, depth, o.cfg.Window, fmtT(d.at))
			case !entitled && graced:
				r.GraceGrants++
			case !entitled:
				r.FalseGrants++
				o.violate(r, "viewer %s opened seq %d at %s outside rights",
					d.viewer, d.seq, fmtT(d.at))
			}
			continue
		}
		// A failed decrypt needs an innocent explanation. The window
		// threshold here is Window-1, one less than the breach threshold
		// above: advance distribution pushes the NEXT serial into the
		// viewer's ring shortly before the production switch (§IV-E), so
		// the oldest of the Window retained serials is evicted early —
		// availability at depth Window-1 depends on where the playhead
		// sits relative to the advance push and is indeterminate either
		// way. Opening at that depth is fine; failing there is too.
		switch {
		case !known:
			r.UnknownSerialDenials++
		case depth >= o.cfg.Window-1:
			r.WindowDenials++
		case v == nil || !entitled:
			// Not entitled: denial is the right outcome.
		case o.inSettle(v, d.at):
			r.SettleDenials++
		case d.at.Before(rotAt.Add(o.cfg.Settle)):
			r.RekeyRaceDenials++
		default:
			r.FalseDenials++
			o.violate(r, "viewer %s denied seq %d serial %d at %s: entitled, admitted, depth %d < window %d",
				d.viewer, d.seq, d.serial, fmtT(d.at), depth, o.cfg.Window)
		}
	}

	for _, ds := range depths {
		if ds.Attempts > 0 {
			r.Depths = append(r.Depths, ds)
		}
	}
	sort.Slice(r.Depths, func(i, j int) bool { return r.Depths[i].Depth < r.Depths[j].Depth })
	return r
}

// depthAt returns how many rotations behind the latest iteration the
// serial sits at time t (0 = current) and when production switched onto
// it, replaying the rekey timeline. The 8-bit serial wraps, so the MOST
// RECENT production of the serial at or before t (+grace, covering
// advance-distributed next keys) decides.
func (o *Oracle) depthAt(s keys.Serial, t time.Time) (int, time.Time, bool) {
	latest := -1 // index of last rotation at or before t
	match := -1  // index of last rotation of serial s at or before t+grace
	for i, rk := range o.rekeys {
		if !rk.at.After(t) {
			latest = i
		}
		if rk.serial == s && !rk.at.After(t.Add(o.cfg.Grace)) {
			match = i
		}
	}
	if match < 0 {
		return 0, time.Time{}, false
	}
	if latest < match {
		return 0, o.rekeys[match].at, true // advance-distributed next key: depth 0
	}
	return latest - match, o.rekeys[match].at, true
}

// rightsEndAt reports whether t is inside any rights window, and if so
// whether the covering windows are bounded and the latest such end.
func rightsEndAt(rights []rightsWindow, t time.Time) (ok, bounded bool, end time.Time) {
	for _, w := range rights {
		if !w.contains(t) {
			continue
		}
		if w.End.IsZero() {
			return true, false, time.Time{}
		}
		if !ok || w.End.After(end) {
			ok, bounded, end = true, true, w.End
		}
	}
	return ok, bounded, end
}

func anyContains(rights []rightsWindow, t time.Time) bool {
	for _, w := range rights {
		if w.contains(t) {
			return true
		}
	}
	return false
}

// inSettle reports whether t falls within the settle slack after any of
// the viewer's admissions.
func (o *Oracle) inSettle(v *viewer, t time.Time) bool {
	for _, a := range v.admits {
		if !t.Before(a) && t.Before(a.Add(o.cfg.Settle)) {
			return true
		}
	}
	return false
}

func (o *Oracle) violate(r *Report, format string, args ...any) {
	if len(r.Violations) < o.cfg.MaxViolations {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

func fmtT(t time.Time) string { return t.UTC().Format("15:04:05") }
