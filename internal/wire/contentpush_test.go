package wire

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestAppendContentPushHeader pins the batched fan-out frame: header +
// raw packet bytes must be byte-identical to ContentPush.Encode and
// decode to the same message.
func TestAppendContentPushHeader(t *testing.T) {
	for _, tc := range []struct {
		name string
		msg  ContentPush
	}{
		{"sealed", ContentPush{ChannelID: "sports-hd", Substream: 3, Seq: 982451653, Packet: bytes.Repeat([]byte{0x5C}, 1400)}},
		{"empty-channel", ContentPush{ChannelID: "", Substream: 255, Seq: ^uint64(0), Packet: []byte{1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.msg.Encode()
			hdrLen := ContentPushHeaderLen(tc.msg.ChannelID)
			got := make([]byte, 0, hdrLen+len(tc.msg.Packet))
			got = AppendContentPushHeader(got, tc.msg.ChannelID, tc.msg.Substream, tc.msg.Seq, len(tc.msg.Packet))
			if len(got) != hdrLen {
				t.Fatalf("header length %d; ContentPushHeaderLen says %d", len(got), hdrLen)
			}
			got = append(got, tc.msg.Packet...)
			if !bytes.Equal(got, want) {
				t.Fatalf("append-built frame differs from Encode:\n%x\nvs\n%x", got, want)
			}
			dec, err := DecodeContentPush(got)
			if err != nil {
				t.Fatalf("DecodeContentPush: %v", err)
			}
			if dec.ChannelID != tc.msg.ChannelID || dec.Substream != tc.msg.Substream ||
				dec.Seq != tc.msg.Seq || !bytes.Equal(dec.Packet, tc.msg.Packet) {
				t.Fatalf("decoded message mismatch: %+v vs %+v", dec, tc.msg)
			}
		})
	}
}

// TestDecodeContentPushOnAllocBudget pins the relay hop's decode: a frame
// on the receiver's channel shares the receiver's ChannelID string (no
// copy, no allocation), and a frame on another channel still decodes to
// its own ChannelID, exactly as DecodeContentPush does.
func TestDecodeContentPushOnAllocBudget(t *testing.T) {
	own := "sports-hd"
	frame := (&ContentPush{ChannelID: own, Substream: 3, Seq: 77, Packet: []byte("pkt")}).Encode()
	m, err := DecodeContentPushOn(frame, own)
	if err != nil || m.ChannelID != own || m.Seq != 77 || !bytes.Equal(m.Packet, []byte("pkt")) {
		t.Fatalf("DecodeContentPushOn = %+v, %v", m, err)
	}
	if unsafe.StringData(m.ChannelID) != unsafe.StringData(own) {
		t.Fatal("ChannelID was copied out of the frame, not shared with the receiver's")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeContentPushOn(frame, own); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("DecodeContentPushOn allocates %.1f objects on the receiver's channel, want 0", allocs)
	}
	if m, err := DecodeContentPushOn(frame, "news"); err != nil || m.ChannelID != own {
		t.Fatalf("foreign-channel decode = %q, %v; want %q", m.ChannelID, err, own)
	}
}

// Encode builds a KeyPush the way a relay does: AppendKeyPushHeader,
// then the sealed key bytes, in one exact-size buffer.
func (m *KeyPush) Encode() []byte {
	b := make([]byte, 0, KeyPushHeaderLen(m.ChannelID)+len(m.SealedKey))
	return append(AppendKeyPushHeader(b, m.ChannelID, len(m.SealedKey)), m.SealedKey...)
}
