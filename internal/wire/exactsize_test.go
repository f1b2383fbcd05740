package wire

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

type encoder interface{ Encode() []byte }

func dec[M encoder](f func([]byte) (M, error)) func([]byte) (encoder, error) {
	return func(b []byte) (encoder, error) { return f(b) }
}

// everyMessage lists each message type twice — every field set, and the
// zero value — with its decoder. TestEncodeExactSize fails if a type with
// an Encode method in this package is missing from it.
var everyMessage = []struct {
	full, zero encoder
	decode     func([]byte) (encoder, error)
}{
	{&Login1Req{Email: "u@example.com", ClientKey: []byte("pk"), Version: 3}, &Login1Req{}, dec(DecodeLogin1Req)},
	{&Login1Resp{Sealed: []byte("sealed"), Token: []byte("tok")}, &Login1Resp{}, dec(DecodeLogin1Resp)},
	{&Login2Req{Email: "u@e", Token: []byte("t"), Nonce: []byte("n"), Checksum: []byte("c"), Sig: []byte("s")}, &Login2Req{}, dec(DecodeLogin2Req)},
	{&Login2Resp{UserTicket: []byte("ticket"), ServerTime: time.Unix(1214179200, 5).UTC(), MinVersion: 2}, &Login2Resp{}, dec(DecodeLogin2Resp)},
	{&SwitchReq{UserTicket: []byte("ut"), ChannelID: "chA", ExpiringTicket: []byte("old")}, &SwitchReq{}, dec(DecodeSwitchReq)},
	{&SwitchChallenge{Nonce: []byte("n"), Token: []byte("t")}, &SwitchChallenge{}, dec(DecodeSwitchChallenge)},
	{&SwitchFinish{UserTicket: []byte("ut"), ChannelID: "chA", ExpiringTicket: []byte("old"), Token: []byte("t"), Nonce: []byte("n"), Sig: []byte("s")}, &SwitchFinish{}, dec(DecodeSwitchFinish)},
	{&SwitchResp{ChannelTicket: []byte("ct"), Peers: []string{"p1", "peer-2", ""}}, &SwitchResp{}, dec(DecodeSwitchResp)},
	{&JoinReq{ChannelTicket: []byte("ct"), Substreams: []byte{0, 2}, Capacity: 4}, &JoinReq{}, dec(DecodeJoinReq)},
	{&JoinResp{Accept: true, Reason: "r", SealedSession: []byte("sk"), SealedKeys: [][]byte{{1}, {2, 3}}, Code: CodeNoCapacity}, &JoinResp{}, dec(DecodeJoinResp)},
	{&SeekReq{ChannelTicket: []byte("ct"), FromSeq: 9, MaxFrames: 3}, &SeekReq{}, dec(DecodeSeekReq)},
	{&HistoryFrame{Substream: 1, Seq: 7, Clear: true, Packet: []byte("pkt")}, &HistoryFrame{}, dec(DecodeHistoryFrame)},
	{&SeekResp{Accept: true, Reason: "r", Code: CodeSeekTooDeep, OldestSeq: 1, NewestSeq: 9, Frames: [][]byte{{1, 2}, {3}}}, &SeekResp{}, dec(DecodeSeekResp)},
	{&KeyPush{ChannelID: "chA", SealedKey: []byte("sealed")}, &KeyPush{}, dec(DecodeKeyPush)},
	{&ContentPush{ChannelID: "chA", Substream: 3, Seq: 77, Clear: true, Packet: []byte("pkt")}, &ContentPush{}, func(b []byte) (encoder, error) {
		m, err := DecodeContentPush(b) // by value: the zero-copy decode puts no message on the heap
		return &m, err
	}},
	{&RenewalPresent{ChannelTicket: []byte("ct2")}, &RenewalPresent{}, dec(DecodeRenewalPresent)},
	{&LeaveNotice{ChannelID: "chA"}, &LeaveNotice{}, dec(DecodeLeaveNotice)},
	{&ChanListReq{UserTicket: []byte("ut"), StaleNames: []string{"Region", "Tier"}}, &ChanListReq{}, dec(DecodeChanListReq)},
	{&ChanListResp{Channels: bytes.Repeat([]byte("ch"), 700)}, &ChanListResp{}, dec(DecodeChanListResp)},
	{&RedirectReq{Email: "u@e"}, &RedirectReq{}, dec(DecodeRedirectReq)},
	{&RedirectResp{UserMgr: "um1", UserMgrKey: []byte("k1"), PolicyMgr: "pm", PolicyMgrKey: []byte("k2"), ShardEpoch: 4}, &RedirectResp{}, dec(DecodeRedirectResp)},
	{&Feed{Version: 3, Body: []byte("body")}, &Feed{}, dec(DecodeFeed)},
	{&LicenseReq{UserIN: 9, FileID: "f1"}, &LicenseReq{}, dec(DecodeLicenseReq)},
	{&LicenseResp{Granted: true, Key: []byte("k")}, &LicenseResp{}, dec(DecodeLicenseResp)},
	{&ServiceError{Code: CodeBadToken, Msg: "lapsed"}, &ServiceError{}, func(b []byte) (encoder, error) {
		d := NewDec(b)
		serr := readErrorFrame(d)
		return serr, d.Finish()
	}},
}

// TestEncodeExactSize: every Encode sizes its buffer from its fields, so
// the bytes handed to the network are one allocation with no slack and no
// append-growth — and what it wrote decodes back to the same message.
func TestEncodeExactSize(t *testing.T) {
	covered := map[string]bool{}
	for _, m := range everyMessage {
		name := reflect.TypeOf(m.full).Elem().Name()
		covered[name] = true
		for _, msg := range []encoder{m.full, m.zero} {
			out := msg.Encode()
			if len(out) != cap(out) {
				t.Errorf("%s %+v: len(Encode()) = %d, cap = %d — size the encoder from the fields", name, msg, len(out), cap(out))
			}
			if n := testing.AllocsPerRun(20, func() { _ = msg.Encode() }); n != 1 {
				t.Errorf("%s: Encode allocates %.0f objects, want 1", name, n)
			}
			back, err := m.decode(out)
			if err != nil {
				t.Errorf("%s: decode(Encode()): %v", name, err)
				continue
			}
			if again := back.Encode(); !bytes.Equal(again, out) {
				t.Errorf("%s: Encode(decode(Encode())) differs from Encode()", name)
			}
		}
		full := m.full.Encode()
		back, _ := m.decode(full)
		if cp, ok := back.(*ContentPush); ok {
			// Frame is the accepted input, not a field Encode writes.
			if !bytes.Equal(cp.Frame, full) {
				t.Errorf("ContentPush: decoded Frame %x, want the input %x", cp.Frame, full)
			}
			cp.Frame = nil
		}
		if !reflect.DeepEqual(back, m.full) {
			t.Errorf("%s: round trip = %+v, want %+v", name, back, m.full)
		}
	}

	// Completeness: every type in the package with an Encode() []byte
	// method is in the table.
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "Encode" {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && !covered[id.Name] {
				missing = append(missing, id.Name)
			}
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("message types with Encode but no everyMessage row: %v", missing)
	}
}
