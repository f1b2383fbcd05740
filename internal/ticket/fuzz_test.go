package ticket

import (
	"bytes"
	"testing"
	"time"

	"p2pdrm/internal/attr"
	"p2pdrm/internal/cryptoutil"
)

// FuzzVerifyTickets: ticket verification parses attacker-controlled
// bytes; it must never panic and must never accept without a valid
// signature.
func FuzzVerifyTickets(f *testing.F) {
	rng := cryptoutil.NewSeededReader(1)
	mgr, _ := cryptoutil.NewKeyPair(rng)
	cli, _ := cryptoutil.NewKeyPair(rng)
	ut := &UserTicket{
		UserIN: 1, ClientKey: cli.Public(),
		Start:  time.Unix(0, 0).UTC(),
		Expiry: time.Unix(3600, 0).UTC(),
		Attrs:  attr.List{{Name: attr.NameRegion, Value: "100"}},
	}
	ct := &ChannelTicket{
		UserIN: 1, ChannelID: "ch", NetAddr: "r1.as1.h1",
		ClientKey: cli.Public(),
		Start:     time.Unix(0, 0).UTC(),
		Expiry:    time.Unix(3600, 0).UTC(),
	}
	utBlob := SignUser(ut, mgr)
	ctBlob := SignChannel(ct, mgr)
	f.Add(utBlob)
	f.Add(ctBlob)
	f.Add([]byte{})
	f.Add([]byte{0xD1})
	f.Add([]byte{0xD2, 1, 2, 3})

	pub := mgr.Public()
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, err := verifyUser(b, pub); err == nil {
			// Acceptance is only legal for the genuine blob.
			if got.UserIN != 1 || !bytes.Equal(got.ClientKey.Encode(), cli.Public().Encode()) {
				t.Fatalf("forged user ticket accepted: %+v", got)
			}
		}
		if got, err := VerifyChannel(b, pub); err == nil {
			if got.UserIN != 1 || got.ChannelID != "ch" {
				t.Fatalf("forged channel ticket accepted: %+v", got)
			}
		}
	})
}
