package exp

import (
	"os"
	"testing"

	"p2pdrm/internal/wire"
)

// TestAdversaryConformance is the adversarial acceptance bar: under a
// key-leak re-key storm, a free-riding wave, and a replayed/stolen/forged
// ticket flood, rights enforcement must not budge — zero false grants,
// zero false denials, no replay accepted, and every refusal typed.
func TestAdversaryConformance(t *testing.T) {
	res, err := RunAdversary(AdversaryConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cr := res.Conform
	if !cr.Clean() {
		t.Fatalf("conformance violations: %s\n%v", cr.Summary(), cr.Violations)
	}
	if res.Frames == 0 || cr.Decrypts == 0 {
		t.Fatal("no playback observed — scenario inert")
	}
	// The storm must have run every forced rotation, and honest playback
	// must survive it (races absorbed inside the settle slack).
	if res.ForcedRekeys != 7 {
		t.Errorf("forced rekeys = %d, want 7", res.ForcedRekeys)
	}
	// Replay flood: every single join refused, with the right code per
	// attack. Expired replays are the headline — each of the
	// attackers×replays presentations of the stale blob must come back
	// CodeExpiredTicket, never a session.
	if res.ReplayAccepted != 0 {
		t.Fatalf("%d replayed tickets ACCEPTED — rights hole", res.ReplayAccepted)
	}
	wantExpired := int64(5 * 3)
	if got := res.ReplayOutcomes[wire.CodeExpiredTicket.String()]; got != wantExpired {
		t.Errorf("expired-ticket refusals = %d, want %d (outcomes %v)", got, wantExpired, res.ReplayOutcomes)
	}
	if res.ReplayOutcomes[wire.CodeAddrMismatch.String()] == 0 {
		t.Error("no addr-mismatch refusals — stolen tickets never tested")
	}
	if res.ReplayOutcomes[wire.CodeBadTicket.String()] == 0 {
		t.Error("no bad-ticket refusals — forged tickets never tested")
	}
	// Free-rider wave: the contributor reservation must have refused
	// zero-capacity joiners at loaded parents.
	if res.FreeRiderRefusals == 0 {
		t.Error("no free-rider refusals — contributor reservation never engaged")
	}
}

// Recorded with AdversaryConfig{Seed: 42} on the serialized engine.
// Regenerate with GOLDEN_PRINT=1. A change here means the adversarial
// scenario's observable behaviour moved.
const goldenAdversary = "v=12 fr=6 atk=5 frames=4848 rekeys=7 stormfail=13 frref=13 fradm=12 frwatch=6 replay=25 acc=0 rep.addr_mismatch=5 rep.bad_ticket=5 rep.expired_ticket=15 part=0 ring=4861/13/0/13 conform[decrypts=4861 ok=4848 falseGrant=0 falseDeny=0 windowBreach=0 ticketOverrun=0 graceGrant=0 windowDeny=0] sent=5955 drop=0 drm.chanlist=18/0/0/0 drm.login1=19/0/0/0 drm.login2=19/0/0/0 drm.redirect=19/0/0/0 drm.switch1=106/0/0/0 drm.switch2=106/0/0/0"

func TestAdversaryDeterminismGolden(t *testing.T) {
	res, err := RunAdversary(AdversaryConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	got := res.fingerprint()
	if os.Getenv("GOLDEN_PRINT") != "" {
		t.Logf("adversary golden:\n%s", got)
	} else if got != goldenAdversary {
		t.Errorf("adversary results moved\n got: %s\nwant: %s", got, goldenAdversary)
	}
}

// TestAdversaryPartitionChaos severs a share of honest viewers from the
// root during the freeride phase: their feed must re-parent through
// other viewers, and none of the attacks may convert the outage into a
// rights breach.
func TestAdversaryPartitionChaos(t *testing.T) {
	res, err := RunAdversary(AdversaryConfig{Seed: 33, FaultPartition: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitioned == 0 {
		t.Fatal("no viewers partitioned — fault not injected")
	}
	if res.Net.DroppedLinkCut == 0 {
		t.Error("no link-cut drops — partition never intersected traffic")
	}
	if !res.Conform.Clean() {
		t.Fatalf("partition corrupted rights enforcement: %s\n%v",
			res.Conform.Summary(), res.Conform.Violations)
	}
	if res.ReplayAccepted != 0 {
		t.Fatalf("%d replayed tickets accepted under chaos", res.ReplayAccepted)
	}
}

// TestAdversaryOneHonestViewer is the regression for the stolen-ticket
// replay's victim pick, which divided by Viewers-1 inside a simulated
// goroutine: a one-viewer audience is floored at two (a thief needs a
// victim other than the harvested viewer 0) and the flood still runs.
func TestAdversaryOneHonestViewer(t *testing.T) {
	res, err := RunAdversary(AdversaryConfig{Seed: 1, Viewers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Viewers != 2 {
		t.Errorf("audience = %d, want the floor of 2", res.Viewers)
	}
	if res.ReplayAttempts == 0 || res.ReplayAccepted != 0 {
		t.Errorf("replay flood: %d attempts, %d accepted", res.ReplayAttempts, res.ReplayAccepted)
	}
	if !res.Conform.Clean() {
		t.Fatalf("conformance violations: %s", res.Conform.Summary())
	}
}
