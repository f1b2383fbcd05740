package exp

import (
	"testing"
	"time"

	"p2pdrm/internal/core"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/wire"
)

// TestSessionLoop drives the one session loop on a tiny deployment. The
// failing cases watch a channel that was never deployed: every login
// succeeds, every watch is refused.
func TestSessionLoop(t *testing.T) {
	const deadline = 40 * time.Second
	for _, tc := range []struct {
		name    string
		channel string
		final   bool // what the failed hook answers
		// Expected hook counts; toDeadline replaces the failed/retried
		// counts with the retry-until-deadline checks.
		watching, failed int
		toDeadline       bool
	}{
		{name: "success stops at playback", channel: "live", watching: 1},
		{name: "final failure stops at once", channel: "nope", final: true, failed: 1},
		{name: "failures retry to the deadline", channel: "nope", toDeadline: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := newRun(3, core.Options{PacketInterval: 24 * 365 * time.Hour}, deadline, drain)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.sys.DeployChannel(core.FreeToView("live", "Live", "100")); err != nil {
				t.Fatal(err)
			}
			c, err := r.viewer("v@e", nil)
			if err != nil {
				t.Fatal(err)
			}
			var loggedIn, watching, failed, retried int
			var lastFail time.Time
			r.session(c, time.Second, tc.channel, sessionHooks{
				loggedIn: func(elapsed time.Duration) {
					loggedIn++
					if elapsed <= 0 {
						t.Errorf("login took %v from arrival", elapsed)
					}
				},
				watching: func(time.Duration) { watching++ },
				failed: func(err error) bool {
					failed++
					lastFail = r.sys.Sched.Now()
					return tc.final
				},
				retried: func() { retried++ },
			})
			art := r.finish()
			if tc.toDeadline {
				// One retry per backoff, the attempt that crosses the
				// deadline is the last: 2+4+8+15+15 s of backoff (plus
				// jitter) cross 40 s on the fifth or sixth attempt.
				if retried == 0 || failed != retried+1 {
					t.Errorf("failed %d times, retried %d: want one retry per failure but the last", failed, retried)
				}
				if lastFail.Before(r.deadline) {
					t.Errorf("gave up at %v, before the deadline %v", lastFail, r.deadline)
				}
				if failed < 5 || failed > 6 {
					t.Errorf("%d attempts inside a %v deadline: backoff is not 2s doubling to 15s", failed, deadline)
				}
			} else if failed != tc.failed || retried != 0 {
				t.Errorf("failed %d (want %d), retried %d (want 0)", failed, tc.failed, retried)
			}
			if loggedIn != 1 || watching != tc.watching {
				t.Errorf("loggedIn %d (want 1, however many logins), watching %d (want %d)", loggedIn, watching, tc.watching)
			}
			if art.Calls["drm.login2"].Attempts == 0 || art.Trace.Len() == 0 {
				t.Error("the viewer's calls and spans did not reach the bundle")
			}
		})
	}
}

// TestCallAggregatorRollUp: the aggregator adds live counters straight
// into one total per service; the result must equal merging every
// client's own snapshot, whichever clients have already departed, and a
// returned total must not alias the accumulator.
func TestCallAggregatorRollUp(t *testing.T) {
	r, err := newRun(3, core.Options{PacketInterval: 24 * 365 * time.Hour}, 40*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.sys.DeployChannel(core.FreeToView("live", "Live", "100")); err != nil {
		t.Fatal(err)
	}
	for _, email := range []string{"a@e", "b@e", "c@e"} {
		c, err := r.viewer(email, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.session(c, time.Second, "live", sessionHooks{})
	}
	r.sys.Sched.RunUntil(r.end)
	want := map[string]svc.CallStats{}
	for _, c := range r.clients {
		for name, cs := range c.Policy().Stats() {
			tot := want[name]
			tot.Merge(cs)
			want[name] = tot
		}
	}
	check := func(when string) {
		got := r.calls.Totals()
		if len(got) != len(want) {
			t.Fatalf("%s: %d services, want %d", when, len(got), len(want))
		}
		for name, w := range want {
			g := got[name]
			if *g.Hist != *w.Hist {
				t.Errorf("%s: %s histogram differs from the merged client snapshots", when, name)
			}
			g.Hist, w.Hist = nil, nil
			if g != w {
				t.Errorf("%s: %s = %+v, want %+v", when, name, g, w)
			}
		}
		got[wire.SvcLogin1].Hist.N += 1000 // must not reach the accumulator
	}
	check("all live")
	r.calls.Finish(r.clients[0])
	r.calls.Finish(r.clients[0]) // a second Finish is a no-op
	check("one departed")
	for _, c := range r.clients {
		r.calls.Finish(c)
	}
	check("all departed")
	r.sys.StopAll()
}
