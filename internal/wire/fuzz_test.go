package wire

import (
	"bytes"
	"testing"
)

// Fuzz targets: every decoder must be total — no panics, no hangs — on
// arbitrary byte strings, because they parse data straight off the
// (simulated) network. `go test` runs the seed corpus; `go test -fuzz`
// explores further.

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add((&Login1Req{Email: "a@e", ClientKey: []byte("k"), Version: 1}).Encode())
	f.Add((&SwitchResp{ChannelTicket: []byte("ct"), Peers: []string{"p1", "p2"}}).Encode())
	f.Add((&JoinResp{Accept: true, SealedKeys: [][]byte{{1, 2}}}).Encode())
	f.Add((&ContentPush{ChannelID: "ch", Substream: 1, Seq: 9, Packet: []byte{1}}).Encode())
	f.Add((&Feed{Version: 3, Body: []byte("body")}).Encode())
}

func FuzzDecodeLogin(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = DecodeLogin1Req(b)
		_, _ = DecodeLogin1Resp(b)
		_, _ = DecodeLogin2Req(b)
		_, _ = DecodeLogin2Resp(b)
	})
}

func FuzzDecodeSwitchAndJoin(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = DecodeSwitchReq(b)
		_, _ = DecodeSwitchChallenge(b)
		_, _ = DecodeSwitchFinish(b)
		_, _ = DecodeSwitchResp(b)
		_, _ = DecodeJoinReq(b)
		_, _ = DecodeJoinResp(b)
	})
}

// FuzzDecodeOverlayAndMgmt also pins the canonical ContentPush decode the
// relay's forward-as-received path rests on: whatever DecodeContentPush
// accepts is exactly Encode() of the result, and Frame is the input. The
// receiver-side DecodeContentPushOn must agree with it on every input.
// And every decoder of the package keeps the in-place decode contract
// (checkDecodeContract) on every input.
func FuzzDecodeOverlayAndMgmt(f *testing.F) {
	fuzzSeeds(f)
	frame := (&ContentPush{ChannelID: "ch", Substream: 2, Seq: 1 << 40, Packet: []byte("frame")}).Encode()
	f.Add(frame)
	f.Add(append(bytes.Clone(frame), 0)) // trailing byte
	rows := everyDecoder()
	for _, row := range rows {
		for _, b := range row.frames {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, row := range rows {
			checkDecodeContract(t, row, b)
		}
		m, err := DecodeContentPush(b)
		if on, onErr := DecodeContentPushOn(b, "ch"); (err == nil) != (onErr == nil) ||
			on.ChannelID != m.ChannelID || on.Seq != m.Seq || !bytes.Equal(on.Packet, m.Packet) {
			t.Fatalf("DecodeContentPushOn = %+v, %v; DecodeContentPush = %+v, %v", on, onErr, m, err)
		}
		if err == nil {
			if enc := m.Encode(); !bytes.Equal(enc, b) {
				t.Fatalf("DecodeContentPush accepted a non-canonical frame:\n in  %x\n out %x", b, enc)
			}
			if !bytes.Equal(m.Frame, b) {
				t.Fatalf("Frame = %x, want the accepted input %x", m.Frame, b)
			}
		}
	})
}

// FuzzDecodeStr: Str reads straight from the input, and must stay what it
// was — string(Blob()) — on every input: same value, same sticky error
// (ErrTooLarge for the 1 MiB length bomb, ErrTruncated for a short body),
// same bytes left over.
func FuzzDecodeStr(f *testing.F) {
	fuzzSeeds(f)
	f.Add([]byte{0, 0, 0, 3, 'a', 'b', 'c', 'd'})
	f.Add([]byte{0, 0x10, 0, 1, 'x'})                            // maxField+1: too large
	f.Add([]byte{0, 0x10, 0, 0, 'x'})                            // maxField with 1 byte: truncated
	f.Add(append([]byte{0, 0x10, 0, 0}, make([]byte, 1<<20)...)) // maxField, all there
	f.Fuzz(func(t *testing.T, b []byte) {
		ds, db := NewDec(b), NewDec(b)
		for i := 0; i < 3; i++ { // second and third read exercise the sticky error
			s, blob := ds.Str(), db.Blob()
			if s != string(blob) {
				t.Fatalf("read %d: Str = %q, string(Blob()) = %q", i, s, blob)
			}
			if ds.err != db.err {
				t.Fatalf("read %d: Str err = %v, Blob err = %v", i, ds.err, db.err)
			}
			if len(ds.b) != len(db.b) {
				t.Fatalf("read %d: Str left %d bytes, Blob left %d", i, len(ds.b), len(db.b))
			}
		}
	})
}
