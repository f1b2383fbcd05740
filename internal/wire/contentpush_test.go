package wire

import (
	"bytes"
	"testing"
)

// TestAppendContentPushHeader pins the batched fan-out frame: header +
// raw packet bytes must be byte-identical to ContentPush.Encode and
// decode to the same message, for both sealed and clear packets.
func TestAppendContentPushHeader(t *testing.T) {
	for _, tc := range []struct {
		name string
		msg  ContentPush
	}{
		{"sealed", ContentPush{ChannelID: "sports-hd", Substream: 3, Seq: 982451653, Packet: bytes.Repeat([]byte{0x5C}, 1400)}},
		{"clear", ContentPush{ChannelID: "c", Substream: 0, Seq: 0, Clear: true, Packet: []byte{}}},
		{"empty-channel", ContentPush{ChannelID: "", Substream: 255, Seq: ^uint64(0), Packet: []byte{1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.msg.Encode()
			hdrLen := ContentPushHeaderLen(tc.msg.ChannelID)
			got := make([]byte, 0, hdrLen+len(tc.msg.Packet))
			got = AppendContentPushHeader(got, tc.msg.ChannelID, tc.msg.Substream, tc.msg.Seq, tc.msg.Clear, len(tc.msg.Packet))
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
				dec.Seq != tc.msg.Seq || dec.Clear != tc.msg.Clear || !bytes.Equal(dec.Packet, tc.msg.Packet) {
				t.Fatalf("decoded message mismatch: %+v vs %+v", dec, tc.msg)
			}
		})
	}
}
