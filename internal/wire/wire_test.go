package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestEncDecPrimitives(t *testing.T) {
	ts := time.Date(2008, 6, 23, 12, 0, 0, 0, time.UTC)
	e := newEnc(64)
	e.u8(7)
	e.u16(1000)
	e.U32(70000)
	e.u64(1 << 40)
	e.Bool(true)
	e.Bool(false)
	e.Time(ts)
	e.Time(time.Time{})
	e.Blob([]byte{1, 2, 3})
	e.Str("hello")
	e.strSlice([]string{"a", "bb"})
	e.blobSlice([][]byte{{9}, {8, 7}})

	d := NewDec(e.Bytes())
	if d.u8() != 7 || d.u16() != 1000 || d.U32() != 70000 || d.u64() != 1<<40 {
		t.Fatal("integer round trip failed")
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bool round trip failed")
	}
	if got := d.Time(); !got.Equal(ts) {
		t.Fatalf("time = %v", got)
	}
	if !d.Time().IsZero() {
		t.Fatal("zero time round trip failed")
	}
	if !bytes.Equal(d.Blob(), []byte{1, 2, 3}) {
		t.Fatal("blob round trip failed")
	}
	if d.Str() != "hello" {
		t.Fatal("str round trip failed")
	}
	ss := d.strSlice()
	if len(ss) != 2 || ss[0] != "a" || ss[1] != "bb" {
		t.Fatalf("strslice = %v", ss)
	}
	bs := d.blobSlice()
	if len(bs) != 2 || !bytes.Equal(bs[1], []byte{8, 7}) {
		t.Fatalf("blobslice = %v", bs)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDecStickyError(t *testing.T) {
	d := NewDec([]byte{1})
	_ = d.U32() // fails
	if d.Err() == nil {
		t.Fatal("no error after truncated read")
	}
	if d.u64() != 0 || d.Str() != "" {
		t.Fatal("reads after failure returned data")
	}
}

func TestDecTrailingBytes(t *testing.T) {
	e := newEnc(8)
	e.u8(1)
	e.u8(2)
	d := NewDec(e.Bytes())
	_ = d.u8()
	if err := d.Finish(); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDecBadBool(t *testing.T) {
	d := NewDec([]byte{7})
	_ = d.Bool()
	if d.Err() == nil {
		t.Fatal("bool byte 7 accepted")
	}
}

func TestDecFieldBomb(t *testing.T) {
	e := newEnc(8)
	e.U32(1 << 30) // absurd length prefix
	d := NewDec(e.Bytes())
	_ = d.Blob()
	if !errors.Is(d.Err(), ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", d.Err())
	}
}

func TestDecSliceBomb(t *testing.T) {
	e := newEnc(8)
	e.U32(1 << 20)
	d := NewDec(e.Bytes())
	_ = d.strSlice()
	if !errors.Is(d.Err(), ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", d.Err())
	}
}

func TestBlobIsCopied(t *testing.T) {
	e := newEnc(16)
	e.Blob([]byte{1, 2, 3})
	buf := e.Bytes()
	d := NewDec(buf)
	got := d.Blob()
	buf[4] = 99 // mutate underlying buffer
	if got[0] != 1 {
		t.Fatal("Blob aliases the input buffer")
	}
}

func TestLoginMessagesRoundTrip(t *testing.T) {
	r1 := &Login1Req{Email: "u@example.com", ClientKey: []byte("pk"), Version: 3}
	g1, err := DecodeLogin1Req(r1.Encode())
	if err != nil || g1.Email != r1.Email || g1.Version != 3 || !bytes.Equal(g1.ClientKey, r1.ClientKey) {
		t.Fatalf("Login1Req: %v %+v", err, g1)
	}
	p1 := &Login1Resp{Sealed: []byte("sealed"), Token: []byte("tok")}
	gp1, err := DecodeLogin1Resp(p1.Encode())
	if err != nil || !bytes.Equal(gp1.Sealed, p1.Sealed) || !bytes.Equal(gp1.Token, p1.Token) {
		t.Fatalf("Login1Resp: %v", err)
	}
	r2 := &Login2Req{Email: "u@e", Token: []byte("t"), Nonce: []byte("n"), Checksum: []byte("c"), Sig: []byte("s")}
	g2, err := DecodeLogin2Req(r2.Encode())
	if err != nil || g2.Email != "u@e" || !bytes.Equal(g2.Sig, []byte("s")) {
		t.Fatalf("Login2Req: %v", err)
	}
	ts := time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)
	p2 := &Login2Resp{UserTicket: []byte("ticket"), ServerTime: ts, MinVersion: 2}
	gp2, err := DecodeLogin2Resp(p2.Encode())
	if err != nil || !bytes.Equal(gp2.UserTicket, []byte("ticket")) || !gp2.ServerTime.Equal(ts) || gp2.MinVersion != 2 {
		t.Fatalf("Login2Resp: %v %+v", err, gp2)
	}
}

func TestSwitchMessagesRoundTrip(t *testing.T) {
	r := &SwitchReq{UserTicket: []byte("ut"), ChannelID: "chA", ExpiringTicket: []byte("old")}
	g, err := DecodeSwitchReq(r.Encode())
	if err != nil || g.ChannelID != "chA" || !bytes.Equal(g.ExpiringTicket, []byte("old")) {
		t.Fatalf("SwitchReq: %v", err)
	}
	c := &SwitchChallenge{Nonce: []byte("n"), Token: []byte("t")}
	gc, err := DecodeSwitchChallenge(c.Encode())
	if err != nil || !bytes.Equal(gc.Nonce, []byte("n")) {
		t.Fatalf("SwitchChallenge: %v", err)
	}
	f := &SwitchFinish{UserTicket: []byte("ut"), ChannelID: "chA", Token: []byte("t"), Nonce: []byte("n"), Sig: []byte("s")}
	gf, err := DecodeSwitchFinish(f.Encode())
	if err != nil || gf.ChannelID != "chA" || !bytes.Equal(gf.Sig, []byte("s")) {
		t.Fatalf("SwitchFinish: %v", err)
	}
	p := &SwitchResp{ChannelTicket: []byte("ct"), Peers: []string{"p1", "p2"}}
	gp, err := DecodeSwitchResp(p.Encode())
	if err != nil || len(gp.Peers) != 2 || gp.Peers[1] != "p2" {
		t.Fatalf("SwitchResp: %v %+v", err, gp)
	}
}

func TestJoinMessagesRoundTrip(t *testing.T) {
	r := &JoinReq{ChannelTicket: []byte("ct")}
	g, err := DecodeJoinReq(r.Encode())
	if err != nil || !bytes.Equal(g.ChannelTicket, []byte("ct")) {
		t.Fatalf("JoinReq: %v", err)
	}
	p := &JoinResp{Accept: true, SealedSession: []byte("sk"), SealedKeys: [][]byte{{1}, {2}}}
	gp, err := DecodeJoinResp(p.Encode())
	if err != nil || !gp.Accept || len(gp.SealedKeys) != 2 {
		t.Fatalf("JoinResp: %v %+v", err, gp)
	}
	reject := &JoinResp{Accept: false, Reason: "full"}
	gr, err := DecodeJoinResp(reject.Encode())
	if err != nil || gr.Accept || gr.Reason != "full" {
		t.Fatalf("JoinResp reject: %v %+v", err, gr)
	}
}

func TestOverlayMessagesRoundTrip(t *testing.T) {
	k := &KeyPush{ChannelID: "chA", SealedKey: []byte("sealed")}
	gk, err := DecodeKeyPush(k.Encode())
	if err != nil || gk.ChannelID != "chA" {
		t.Fatalf("KeyPush: %v", err)
	}
	c := &ContentPush{ChannelID: "chA", Substream: 3, Seq: 77, Packet: []byte("pkt")}
	cb := c.Encode()
	gc, err := DecodeContentPush(cb)
	if err != nil || gc.Substream != 3 || gc.Seq != 77 || !bytes.Equal(gc.Packet, []byte("pkt")) {
		t.Fatalf("ContentPush: %v %+v", err, gc)
	}
	// Zero-copy: Frame is the input itself and Packet its tail.
	if &gc.Frame[0] != &cb[0] || len(gc.Frame) != len(cb) || &gc.Packet[0] != &cb[len(cb)-len("pkt")] {
		t.Fatal("ContentPush decode copied the frame or the packet")
	}
	rn := &RenewalPresent{ChannelTicket: []byte("ct2")}
	grn, err := DecodeRenewalPresent(rn.Encode())
	if err != nil || !bytes.Equal(grn.ChannelTicket, []byte("ct2")) {
		t.Fatalf("RenewalPresent: %v", err)
	}
	l := &LeaveNotice{ChannelID: "chA"}
	gl, err := DecodeLeaveNotice(l.Encode())
	if err != nil || gl.ChannelID != "chA" {
		t.Fatalf("LeaveNotice: %v", err)
	}
}

func TestManagementMessagesRoundTrip(t *testing.T) {
	r := &ChanListReq{UserTicket: []byte("ut"), StaleNames: []string{"Region"}}
	g, err := DecodeChanListReq(r.Encode())
	if err != nil || len(g.StaleNames) != 1 || g.StaleNames[0] != "Region" {
		t.Fatalf("ChanListReq: %v", err)
	}
	p := &ChanListResp{Channels: []byte("encoded-channels")}
	gp, err := DecodeChanListResp(p.Encode())
	if err != nil || !bytes.Equal(gp.Channels, p.Channels) {
		t.Fatalf("ChanListResp: %v", err)
	}
	rr := &RedirectReq{Email: "u@e"}
	grr, err := DecodeRedirectReq(rr.Encode())
	if err != nil || grr.Email != "u@e" {
		t.Fatalf("RedirectReq: %v", err)
	}
	rp := &RedirectResp{UserMgr: "um1", UserMgrKey: []byte("k1"), PolicyMgr: "pm", PolicyMgrKey: []byte("k2")}
	grp, err := DecodeRedirectResp(rp.Encode())
	if err != nil || grp.UserMgr != "um1" || grp.PolicyMgr != "pm" {
		t.Fatalf("RedirectResp: %v %+v", err, grp)
	}
}

func TestLicenseMessagesRoundTrip(t *testing.T) {
	r := &LicenseReq{UserIN: 9, FileID: "f1"}
	g, err := DecodeLicenseReq(r.Encode())
	if err != nil || g.UserIN != 9 || g.FileID != "f1" {
		t.Fatalf("LicenseReq: %v", err)
	}
	p := &LicenseResp{Granted: true, Key: []byte("k")}
	gp, err := DecodeLicenseResp(p.Encode())
	if err != nil || !gp.Granted || !bytes.Equal(gp.Key, []byte("k")) {
		t.Fatalf("LicenseResp: %v", err)
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	msgs := map[string][]byte{
		"login1req":  (&Login1Req{Email: "e", ClientKey: []byte("k"), Version: 1}).Encode(),
		"login2resp": (&Login2Resp{UserTicket: []byte("t")}).Encode(),
		"switchresp": (&SwitchResp{ChannelTicket: []byte("ct"), Peers: []string{"p"}}).Encode(),
		"joinresp":   (&JoinResp{Accept: true, SealedKeys: [][]byte{{1}}}).Encode(),
	}
	decoders := map[string]func([]byte) error{
		"login1req":  func(b []byte) error { _, err := DecodeLogin1Req(b); return err },
		"login2resp": func(b []byte) error { _, err := DecodeLogin2Resp(b); return err },
		"switchresp": func(b []byte) error { _, err := DecodeSwitchResp(b); return err },
		"joinresp":   func(b []byte) error { _, err := DecodeJoinResp(b); return err },
	}
	for name, buf := range msgs {
		dec := decoders[name]
		for cut := 0; cut < len(buf); cut++ {
			if dec(buf[:cut]) == nil {
				t.Errorf("%s: truncation at %d accepted", name, cut)
			}
		}
	}
}

// Property: ContentPush round-trips arbitrary packet contents.
func TestContentPushProperty(t *testing.T) {
	f := func(ch string, sub uint8, seq uint64, pkt []byte) bool {
		m := &ContentPush{ChannelID: ch, Substream: sub, Seq: seq, Packet: pkt}
		enc := m.Encode()
		g, err := DecodeContentPush(enc)
		if err != nil {
			return false
		}
		return g.ChannelID == ch && g.Substream == sub && g.Seq == seq && bytes.Equal(g.Packet, pkt) &&
			bytes.Equal(g.Frame, enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SwitchResp round-trips arbitrary peer lists.
func TestSwitchRespProperty(t *testing.T) {
	f := func(ticket []byte, peers []string) bool {
		if len(peers) > 64 {
			peers = peers[:64]
		}
		m := &SwitchResp{ChannelTicket: ticket, Peers: peers}
		g, err := DecodeSwitchResp(m.Encode())
		if err != nil || len(g.Peers) != len(peers) {
			return false
		}
		for i := range peers {
			if g.Peers[i] != peers[i] {
				return false
			}
		}
		return bytes.Equal(g.ChannelTicket, ticket)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
