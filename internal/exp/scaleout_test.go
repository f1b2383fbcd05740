package exp

import (
	"os"
	"testing"
	"time"
)

// TestScaleOutFlatP95 is the tentpole's acceptance bar: viewers grow 10×
// across the sweep while members are added live, and the per-phase login
// p95 stays flat (within 20%), no login is lost to a mid-run reshard,
// and the shed/handoff machinery shows real activity rather than having
// been dodged.
func TestScaleOutFlatP95(t *testing.T) {
	res, err := RunScaleOut(ScaleOutConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if res.Watching != res.Viewers {
		t.Fatalf("%d of %d viewers reached playback", res.Watching, res.Viewers)
	}
	if res.FailedLogins != 0 {
		t.Fatalf("%d failed logins across the reshards", res.FailedLogins)
	}
	if spread := res.p95Spread(); spread > 1.2 {
		t.Errorf("login p95 spread %.2fx across phases, want flat within 20%%", spread)
	}
	// The farm must actually have grown live, moving account state.
	if res.MembersEnd != res.MembersStart+5 {
		t.Errorf("members %d → %d, want +5", res.MembersStart, res.MembersEnd)
	}
	if res.Handoffs <= int64(res.MembersStart) {
		t.Errorf("handoffs = %d — no mid-run membership change recorded", res.Handoffs)
	}
	if res.KeysMoved == 0 {
		t.Error("no account records moved despite two reshards")
	}
	// Shedding absorbed bursts (server refused, client retried through).
	if res.Shed == 0 {
		t.Error("no logins shed — high-water mark never engaged")
	}
	if res.Overloads == 0 {
		t.Error("no overload answers absorbed client-side")
	}
	// Ticket renewals after the reshards must have exercised the
	// stale-shard-map path: client re-resolves after wrong_shard.
	if res.ShardRetries == 0 {
		t.Error("no stale-map retries — wrong-shard path never exercised")
	}
	if res.WrongShard == 0 {
		t.Error("no wrong-shard refusals server-side")
	}
}

// Recorded with ScaleOutConfig{Seed: 42} on the serialized engine.
// Regenerate with GOLDEN_PRINT=1. A change here means the scale-out
// scenario's observable behaviour moved.
const goldenScaleOut = "v=400 w=400 failed=0 members=2-7 epoch=7 hand=7 moved=86 part=0 shed=1 over=1 sretry=62 wrong=62 rate=0 lock=0 sess=0 all=116085740 sent=25243 drop=0 x1=40/40/713006/941210/0 x3=80/80/710197/960574/0 x10=280/280/701940/1050054/1 drm.chanlist=400/0/0/0 drm.login1=1782/1/0/1 drm.login2=1719/0/0/0 drm.redirect=462/0/0/0 drm.switch1=1719/0/0/0 drm.switch2=1719/0/0/0"

func TestScaleOutDeterminismGolden(t *testing.T) {
	res, err := RunScaleOut(ScaleOutConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Fingerprint()
	if os.Getenv("GOLDEN_PRINT") != "" {
		t.Logf("scaleout golden:\n%s", got)
	} else if got != goldenScaleOut {
		t.Errorf("scaleout results moved\n got: %s\nwant: %s", got, goldenScaleOut)
	}
}

// TestScaleOutDeterministicForFixedSeed: the sweep — arrival draws,
// backoff jitter, handoff timing, shed admission races and all — must be
// byte-deterministic for a fixed seed, and the seed must matter.
func TestScaleOutDeterministicForFixedSeed(t *testing.T) {
	cfg := ScaleOutConfig{Seed: 9, BaseViewers: 12, PhaseLen: 30 * time.Second}
	a, err := RunScaleOut(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScaleOut(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		t.Fatalf("same seed, different runs:\n  a: %s\n  b: %s", fa, fb)
	}
	cfg.Seed = 10
	c, err := RunScaleOut(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different seeds produced identical fingerprints — fingerprint too coarse")
	}
}

// TestScaleOutReshardChaos overlaps the boundary-1 handoff with a
// transient partition: 30% of viewers lose their link to the member that
// just took over their key-ranges, exactly while the shard map says to
// go there. Session retry must still carry every viewer to playback with
// zero failed logins.
func TestScaleOutReshardChaos(t *testing.T) {
	res, err := RunScaleOut(ScaleOutConfig{Seed: 33, FaultPartition: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitioned == 0 {
		t.Fatal("no viewers partitioned — fault not injected")
	}
	if res.Watching != res.Viewers {
		t.Fatalf("%d of %d viewers reached playback under the partition", res.Watching, res.Viewers)
	}
	if res.FailedLogins != 0 {
		t.Fatalf("%d failed logins", res.FailedLogins)
	}
	// The partition must have been absorbed, not dodged: link-cut drops
	// on the wire and sessions that had to retry across the outage.
	if res.Net.DroppedLinkCut == 0 {
		t.Error("no link-cut drops — partition never intersected traffic")
	}
	if res.SessionRetries == 0 && res.Calls["drm.login1"].Retries == 0 &&
		res.Calls["drm.redirect"].Retries == 0 {
		t.Error("no retries anywhere despite a partition over the handoff")
	}
}
