package policy

import (
	"testing"
	"time"

	"p2pdrm/internal/attr"
)

// FuzzDecodeChannelArtifacts: channel lists and attribute lists arrive in
// feed pushes and client fetches; decoding must be total.
func FuzzDecodeChannelArtifacts(f *testing.F) {
	ch := &Channel{
		ID:    "chA",
		Name:  "A",
		Attrs: attr.List{{Name: attr.NameRegion, Value: "100"}},
		Rules: []Rule{{
			Priority: 50,
			Conds:    []Cond{{Name: attr.NameRegion, Value: "100"}},
			Effect:   Accept,
		}},
		Partition: "p1",
		MgrAddr:   "cm.p1",
		MgrKey:    []byte("key"),
	}
	f.Add(appendChannel(nil, ch))
	f.Add(AppendChannels(nil, []*Channel{ch, ch}))
	f.Add(BuildAttrList([]*Channel{ch}).Encode())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	at := time.Date(2008, 6, 23, 12, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, b []byte) {
		if c, _, err := decodeChannel(b); err == nil && c != nil {
			// Decoded channels must be safely evaluable.
			_ = c.EvaluateUser(attr.List{{Name: attr.NameRegion, Value: "100"}}, at)
		}
		_, _, _ = DecodeChannels(b)
		_, _ = DecodeAttrList(b)
		_, _, _ = decodeRule(b)
	})
}
