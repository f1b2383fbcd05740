package exp

import (
	"os"
	"testing"
	"time"
)

// TestScaleOutFlatP95 is the scenario's acceptance bar: viewers grow 10×
// across the sweep while members join the farm live, and at seeds 21 and
// 42 the per-phase login p95 stays flat (within 20%), every viewer plays
// with no failed login, every added member takes LOGIN2s, and shedding
// shows real activity rather than having been dodged.
func TestScaleOutFlatP95(t *testing.T) {
	for _, seed := range []int64{21, 42} {
		res, err := RunScaleOut(ScaleOutConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Watching != res.Viewers {
			t.Fatalf("seed %d: %d of %d viewers reached playback", seed, res.Watching, res.Viewers)
		}
		if res.FailedLogins != 0 {
			t.Fatalf("seed %d: %d failed logins across the scale-out", seed, res.FailedLogins)
		}
		if spread := res.p95Spread(); spread > 1.2 {
			t.Errorf("seed %d: login p95 spread %.2fx across phases, want flat within 20%%", seed, spread)
		}
		// The farm must actually have grown live, and each added member
		// must have served logins through the VIP.
		if res.MembersStart != 2 || res.MembersEnd != 7 {
			t.Errorf("seed %d: members %d → %d, want 2 → 7", seed, res.MembersStart, res.MembersEnd)
		}
		for i, n := range res.Login2 {
			if i >= res.MembersStart && n == 0 {
				t.Errorf("seed %d: added member %d served no LOGIN2 (%v)", seed, i+1, res.Login2)
			}
		}
		// Shedding absorbed bursts (server refused, client retried through).
		if res.Shed == 0 {
			t.Errorf("seed %d: no logins shed — high-water mark never engaged", seed)
		}
		if res.Overloads == 0 {
			t.Errorf("seed %d: no overload answers absorbed client-side", seed)
		}
	}
}

// Recorded with ScaleOutConfig{Seed: 42} on the serialized engine.
// Regenerate with GOLDEN_PRINT=1. A change here means the scale-out
// scenario's observable behaviour moved.
const goldenScaleOut = "v=400 w=400 failed=0 members=2-7 login2=261/267/241/256/216/256/219 part=0 shed=4 over=4 sess=0 all=116431392 sent=27686 drop=0 x1=40/40/710918/938213/0 x3=80/80/688366/928800/0 x10=280/280/697278/1002619/4 drm.chanlist=400/0/0/0 drm.login1=1720/4/0/4 drm.login2=1716/0/0/0 drm.redirect=1716/0/0/0 drm.switch1=1716/0/0/0 drm.switch2=1715/0/0/0"

func TestScaleOutDeterminismGolden(t *testing.T) {
	res, err := RunScaleOut(ScaleOutConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	got := res.fingerprint()
	if os.Getenv("GOLDEN_PRINT") != "" {
		t.Logf("scaleout golden:\n%s", got)
	} else if got != goldenScaleOut {
		t.Errorf("scaleout results moved\n got: %s\nwant: %s", got, goldenScaleOut)
	}
}

// TestScaleOutDeterministicForFixedSeed: the sweep — arrival draws,
// backoff jitter, member-add timing, shed admission races and all — must be
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
	if fa, fb := a.fingerprint(), b.fingerprint(); fa != fb {
		t.Fatalf("same seed, different runs:\n  a: %s\n  b: %s", fa, fb)
	}
	cfg.Seed = 10
	c, err := RunScaleOut(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.fingerprint() == a.fingerprint() {
		t.Fatal("different seeds produced identical fingerprints — fingerprint too coarse")
	}
}

// TestScaleOutReshardChaos overlaps the boundary-1 scale-out with a
// transient partition: 30% of viewers lose their link to the User
// Manager VIP exactly while members join behind it. Session retry must
// still carry every viewer to playback with zero failed logins.
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
		t.Error("no retries anywhere despite a partition over the scale-out")
	}
}
