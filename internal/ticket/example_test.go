package ticket_test

import (
	"fmt"
	"time"

	"p2pdrm/internal/attr"
	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/ticket"
)

// Example walks both credentials through their lifecycle: the User
// Manager signs a User Ticket certifying the client's public key; the
// Channel Manager derives a privacy-filtered Channel Ticket from it
// (only the NetAddr attribute survives, §IV-C); any tampering breaks
// verification. One Verifier serves every check, as one serves a whole
// deployment.
func Example() {
	rng := cryptoutil.NewSeededReader(7)
	userMgr, _ := cryptoutil.NewKeyPair(rng)
	chanMgr, _ := cryptoutil.NewKeyPair(rng)
	clientKeys, _ := cryptoutil.NewKeyPair(rng)

	now := time.Date(2008, 6, 23, 20, 0, 0, 0, time.UTC)
	ut := &ticket.UserTicket{
		UserIN:    42,
		ClientKey: clientKeys.Public(),
		Start:     now,
		Expiry:    now.Add(10 * time.Minute),
		Attrs: attr.List{
			{Name: attr.NameNetAddr, Value: "r100.as177.h42"},
			{Name: attr.NameRegion, Value: "100"},
			{Name: attr.NameSubscription, Value: "gold"},
		},
	}
	userBlob := ticket.SignUser(ut, userMgr)

	v := ticket.NewVerifier(0)
	verified, err := v.VerifyUser(userBlob, userMgr.Public())
	fmt.Printf("user ticket: UserIN=%d attrs=%d err=%v\n",
		verified.UserIN, len(verified.Attrs), err)

	// Channel Ticket: "filtering out all user attributes other than the
	// client's network address" (§IV-C).
	ct := &ticket.ChannelTicket{
		UserIN:    verified.UserIN,
		ChannelID: "sports",
		NetAddr:   verified.NetAddr(),
		ClientKey: verified.ClientKey,
		Start:     now,
		Expiry:    now.Add(5 * time.Minute),
	}
	chanBlob := ticket.SignChannel(ct, chanMgr)
	got, err := v.VerifyChannel(chanBlob, chanMgr.Public())
	fmt.Printf("channel ticket: ch=%s addr=%s renewal=%v err=%v\n",
		got.ChannelID, got.NetAddr, got.Renewal, err)

	chanBlob[10] ^= 1
	_, err = v.VerifyChannel(chanBlob, chanMgr.Public())
	fmt.Println("tampered:", err)
	// Output:
	// user ticket: UserIN=42 attrs=3 err=<nil>
	// channel ticket: ch=sports addr=r100.as177.h42 renewal=false err=<nil>
	// tampered: ticket: signature verification failed
}
