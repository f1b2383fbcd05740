package core

import (
	"errors"
	"testing"
	"time"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/wire"
)

// threatStack deploys one free channel and one victim account, returning
// the logged-in victim client.
func threatStack(t *testing.T) (*System, *simnet.Addr) {
	t.Helper()
	sys, err := NewSystem(Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployChannel(FreeToView("news", "News", "100")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterUser("victim@e", "pw"); err != nil {
		t.Fatal(err)
	}
	addr := geo.Addr(100, 1, 1)
	return sys, &addr
}

func wantCode(t *testing.T, err error, code wire.Code, scenario string) {
	t.Helper()
	var se *wire.ServiceError
	if !errors.As(err, &se) || se.Code != code {
		t.Fatalf("%s: err = %v, want remote code %q", scenario, err, code)
	}
}

// TestStolenUserTicketScenarios covers §IV-G1's User Ticket capture
// analysis end to end: a stolen, perfectly valid User Ticket is useless
// (1) from any other network address, and (2) even from the victim's own
// address without the private key matching the certified public key.
func TestStolenUserTicketScenarios(t *testing.T) {
	sys, victimAddr := threatStack(t)
	victim, err := sys.NewClient("victim@e", "pw", *victimAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	attacker := sys.Net.NewNode(geo.Addr(100, 1, 66))

	var crossAddrErr, noKeyErr error
	sys.Sched.Go(func() {
		if err := victim.Login(); err != nil {
			t.Errorf("victim login: %v", err)
			return
		}
		stolen := victim.UserTicketBlob() // what an eavesdropper captures

		// (1) Replay from the attacker's own address.
		req := &wire.SwitchReq{UserTicket: stolen, ChannelID: "news"}
		_, crossAddrErr = attacker.Call(AddrChannelMgr("p1"), wire.SvcSwitch1, req.Encode(), 0)

		// (2) From the victim's network position (e.g. same NAT): the
		// NetAddr check passes, but the nonce must be signed with the
		// private key certified inside the ticket.
		rogue, _ := cryptoutil.NewKeyPair(cryptoutil.NewSeededReader(99))
		raw, err := victim.Node().Call(AddrChannelMgr("p1"), wire.SvcSwitch1, req.Encode(), 0)
		if err != nil {
			noKeyErr = err
			return
		}
		chal, _ := wire.DecodeSwitchChallenge(raw)
		fin := &wire.SwitchFinish{
			UserTicket: stolen, ChannelID: "news",
			Token: chal.Token, Nonce: chal.Nonce, Sig: rogue.Sign(chal.Nonce),
		}
		_, noKeyErr = victim.Node().Call(AddrChannelMgr("p1"), wire.SvcSwitch2, fin.Encode(), 0)
	})
	sys.Sched.RunUntil(sys.Sched.Now().Add(time.Minute))
	sys.StopAll()

	wantCode(t, crossAddrErr, wire.CodeAddrMismatch, "stolen ticket from another address")
	wantCode(t, noKeyErr, wire.CodeDenied, "stolen ticket without the private key")
}

// TestStolenChannelTicketScenarios covers the Channel Ticket analysis:
// the ticket the victim must hand to arbitrary peers during join is the
// most exposed credential, yet a thief cannot use it — peers check the
// NetAddr, and the session key comes sealed to the certified public key,
// so a same-address thief receives bytes it cannot decrypt.
func TestStolenChannelTicketScenarios(t *testing.T) {
	sys, victimAddr := threatStack(t)
	victim, err := sys.NewClient("victim@e", "pw", *victimAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	attacker := sys.Net.NewNode(geo.Addr(100, 1, 66))

	var crossAddr *wire.JoinResp
	var sameAddrSession bool
	sys.Sched.Go(func() {
		if err := victim.Login(); err != nil {
			t.Errorf("victim login: %v", err)
			return
		}
		if err := victim.Watch("news"); err != nil {
			t.Errorf("victim watch: %v", err)
			return
		}
		stolen := victim.ChannelTicketBlob()
		root := AddrChannelRoot("news")

		// (1) Join from the attacker's address with the stolen ticket.
		jr := &wire.JoinReq{ChannelTicket: stolen}
		raw, err := attacker.Call(root, wire.SvcJoin, jr.Encode(), 0)
		if err == nil {
			crossAddr, _ = wire.DecodeJoinResp(raw)
		}

		// (2) Join from the victim's address: the peer accepts (it can't
		// tell the thief from the client) — but the session key is
		// sealed to the victim's public key, so the thief cannot recover
		// it and the content keys remain out of reach (§IV-G1).
		raw2, err := victim.Node().Call(root, wire.SvcJoin, jr.Encode(), 0)
		if err != nil {
			return
		}
		resp2, err := wire.DecodeJoinResp(raw2)
		if err != nil || !resp2.Accept {
			return
		}
		thief, _ := cryptoutil.NewKeyPair(cryptoutil.NewSeededReader(99))
		if _, err := thief.Open(resp2.SealedSession); err == nil {
			sameAddrSession = true // would be a break
		}
	})
	sys.Sched.RunUntil(sys.Sched.Now().Add(time.Minute))
	sys.StopAll()

	if crossAddr == nil {
		t.Fatal("cross-address join got no response")
	}
	if crossAddr.Accept {
		t.Fatal("peer admitted a stolen Channel Ticket from another address")
	}
	if sameAddrSession {
		t.Fatal("thief recovered the session key without the victim's private key")
	}
}

// TestTamperedTicketsRejectedEverywhere flips one bit in each ticket and
// presents it to every verifier in the deployment.
func TestTamperedTicketsRejectedEverywhere(t *testing.T) {
	sys, victimAddr := threatStack(t)
	victim, err := sys.NewClient("victim@e", "pw", *victimAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cmErr, pmErr error
	var joinResp *wire.JoinResp
	sys.Sched.Go(func() {
		if err := victim.Login(); err != nil {
			t.Errorf("victim login: %v", err)
			return
		}
		if err := victim.Watch("news"); err != nil {
			t.Errorf("victim watch: %v", err)
			return
		}
		ut := victim.UserTicketBlob()
		ut[len(ut)/2] ^= 1
		ct := victim.ChannelTicketBlob()
		ct[len(ct)/2] ^= 1

		req := &wire.SwitchReq{UserTicket: ut, ChannelID: "news"}
		_, cmErr = victim.Node().Call(AddrChannelMgr("p1"), wire.SvcSwitch1, req.Encode(), 0)

		clReq := &wire.ChanListReq{UserTicket: ut}
		_, pmErr = victim.Node().Call(addrPolicyMgr, wire.SvcChanList, clReq.Encode(), 0)

		jr := &wire.JoinReq{ChannelTicket: ct}
		raw, err := victim.Node().Call(AddrChannelRoot("news"), wire.SvcJoin, jr.Encode(), 0)
		if err == nil {
			joinResp, _ = wire.DecodeJoinResp(raw)
		}
	})
	sys.Sched.RunUntil(sys.Sched.Now().Add(time.Minute))
	sys.StopAll()

	wantCode(t, cmErr, wire.CodeBadTicket, "tampered user ticket at Channel Manager")
	wantCode(t, pmErr, wire.CodeBadTicket, "tampered user ticket at Channel Policy Manager")
	if joinResp == nil || joinResp.Accept {
		t.Fatalf("tampered channel ticket at peer: %+v", joinResp)
	}
}
