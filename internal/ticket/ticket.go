// Package ticket implements the two credentials of §IV-B/§IV-C (Fig. 3):
//
//   - the User Ticket, issued by the User Manager after login: it carries
//     the UserIN, the certified client public key, validity times, and the
//     full user attribute list, and is digitally signed by the User
//     Manager ("authenticate-once, use-often", along the lines of
//     Kerberos);
//   - the Channel Ticket, issued by the Channel Manager per channel
//     access: it carries only the UserIN, channel identification, the
//     client NetAddr (all other user attributes are filtered out for
//     privacy intermediation), the certified client public key, validity
//     times and the ticket renewal bit, signed by the Channel Manager.
//
// Both tickets are opaque signed byte strings on the wire; tampering with
// any field breaks the signature.
package ticket

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"p2pdrm/internal/attr"
	"p2pdrm/internal/cryptoutil"
)

// Ticket validation errors.
var (
	ErrMalformed    = errors.New("ticket: malformed encoding")
	ErrBadSignature = errors.New("ticket: signature verification failed")
	ErrExpired      = errors.New("ticket: expired")
	ErrNotYetValid  = errors.New("ticket: not yet valid")
)

// Magic bytes distinguish ticket kinds so one can never be replayed as
// the other.
const (
	magicUser    = 0xD1
	magicChannel = 0xD2
)

// UserTicket is the decoded form of a User Ticket.
type UserTicket struct {
	UserIN    uint64
	ClientKey cryptoutil.PublicKey
	Start     time.Time
	Expiry    time.Time
	Attrs     attr.List
}

// ValidAt checks the validity window.
func (t *UserTicket) ValidAt(now time.Time) error {
	if now.Before(t.Start) {
		return ErrNotYetValid
	}
	if !now.Before(t.Expiry) {
		return ErrExpired
	}
	return nil
}

// NetAddr returns the NetAddr attribute value ("" if absent).
func (t *UserTicket) NetAddr() string {
	if a, ok := t.Attrs.First(attr.NameNetAddr); ok {
		return string(a.Value)
	}
	return ""
}

// encodeBody serializes the signed portion. The buffer is sized exactly,
// with spare capacity for the trailing signature so SignUser appends
// without reallocating.
func (t *UserTicket) encodeBody() []byte {
	n := 1 + 8 + len(t.ClientKey.Verify) + len(t.ClientKey.Box) + 8 + 8 + t.Attrs.EncodedLen()
	buf := make([]byte, 0, n+cryptoutil.SignatureSize)
	buf = append(buf, magicUser)
	buf = binary.BigEndian.AppendUint64(buf, t.UserIN)
	buf = append(buf, t.ClientKey.Verify...)
	buf = append(buf, t.ClientKey.Box...)
	buf = appendTime(buf, t.Start)
	buf = appendTime(buf, t.Expiry)
	buf = attr.AppendList(buf, t.Attrs)
	return buf
}

// SignUser encodes and signs the ticket with the User Manager's key.
// Output layout: body || signature.
func SignUser(t *UserTicket, signer *cryptoutil.KeyPair) []byte {
	body := t.encodeBody()
	return append(body, signer.Sign(body)...)
}

// verifyUser parses a signed User Ticket and checks the User Manager's
// signature. Validity times are NOT checked here — call ValidAt. Callers
// outside this package verify through a Verifier.
func verifyUser(b []byte, mgr cryptoutil.PublicKey) (*UserTicket, error) {
	body, err := splitSigned(b, mgr)
	if err != nil {
		return nil, err
	}
	if len(body) < 1 || body[0] != magicUser {
		return nil, ErrMalformed
	}
	body = body[1:]
	t := &UserTicket{}
	if len(body) < 8 {
		return nil, ErrMalformed
	}
	t.UserIN = binary.BigEndian.Uint64(body)
	body = body[8:]
	if len(body) < cryptoutil.PublicKeySize {
		return nil, ErrMalformed
	}
	if t.ClientKey, err = cryptoutil.DecodePublicKey(body[:cryptoutil.PublicKeySize]); err != nil {
		return nil, ErrMalformed
	}
	body = body[cryptoutil.PublicKeySize:]
	if t.Start, body, err = decodeTime(body); err != nil {
		return nil, err
	}
	if t.Expiry, body, err = decodeTime(body); err != nil {
		return nil, err
	}
	if t.Attrs, body, err = attr.DecodeList(body); err != nil {
		return nil, ErrMalformed
	}
	if len(body) != 0 {
		return nil, ErrMalformed
	}
	return t, nil
}

// ChannelTicket is the decoded form of a Channel Ticket.
type ChannelTicket struct {
	UserIN    uint64
	ChannelID string
	NetAddr   string
	ClientKey cryptoutil.PublicKey
	Start     time.Time
	Expiry    time.Time
	// Renewal is the "ticket renewal bit" (§IV-D): set on tickets issued
	// through the renewal path.
	Renewal bool
}

// ValidAt checks the validity window.
func (t *ChannelTicket) ValidAt(now time.Time) error {
	if now.Before(t.Start) {
		return ErrNotYetValid
	}
	if !now.Before(t.Expiry) {
		return ErrExpired
	}
	return nil
}

// encodeBody serializes the signed portion; like the User Ticket form it
// preallocates exactly, leaving room for SignChannel's signature append.
func (t *ChannelTicket) encodeBody() []byte {
	n := 1 + 8 + 2 + len(t.ChannelID) + 2 + len(t.NetAddr) +
		len(t.ClientKey.Verify) + len(t.ClientKey.Box) + 8 + 8 + 1
	buf := make([]byte, 0, n+cryptoutil.SignatureSize)
	buf = append(buf, magicChannel)
	buf = binary.BigEndian.AppendUint64(buf, t.UserIN)
	buf = appendString(buf, t.ChannelID)
	buf = appendString(buf, t.NetAddr)
	buf = append(buf, t.ClientKey.Verify...)
	buf = append(buf, t.ClientKey.Box...)
	buf = appendTime(buf, t.Start)
	buf = appendTime(buf, t.Expiry)
	if t.Renewal {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// SignChannel encodes and signs the ticket with the Channel Manager's key.
func SignChannel(t *ChannelTicket, signer *cryptoutil.KeyPair) []byte {
	body := t.encodeBody()
	return append(body, signer.Sign(body)...)
}

// VerifyChannel parses a signed Channel Ticket and checks the Channel
// Manager's signature. Validity times are NOT checked here — call ValidAt.
func VerifyChannel(b []byte, mgr cryptoutil.PublicKey) (*ChannelTicket, error) {
	body, err := splitSigned(b, mgr)
	if err != nil {
		return nil, err
	}
	if len(body) < 1 || body[0] != magicChannel {
		return nil, ErrMalformed
	}
	body = body[1:]
	t := &ChannelTicket{}
	if len(body) < 8 {
		return nil, ErrMalformed
	}
	t.UserIN = binary.BigEndian.Uint64(body)
	body = body[8:]
	if t.ChannelID, body, err = decodeString(body); err != nil {
		return nil, err
	}
	if t.NetAddr, body, err = decodeString(body); err != nil {
		return nil, err
	}
	if len(body) < cryptoutil.PublicKeySize {
		return nil, ErrMalformed
	}
	if t.ClientKey, err = cryptoutil.DecodePublicKey(body[:cryptoutil.PublicKeySize]); err != nil {
		return nil, ErrMalformed
	}
	body = body[cryptoutil.PublicKeySize:]
	if t.Start, body, err = decodeTime(body); err != nil {
		return nil, err
	}
	if t.Expiry, body, err = decodeTime(body); err != nil {
		return nil, err
	}
	if len(body) != 1 {
		return nil, ErrMalformed
	}
	switch body[0] {
	case 0:
		t.Renewal = false
	case 1:
		t.Renewal = true
	default:
		return nil, ErrMalformed
	}
	return t, nil
}

// splitSigned verifies the trailing Ed25519 signature and returns the body.
func splitSigned(b []byte, signer cryptoutil.PublicKey) ([]byte, error) {
	if len(b) <= cryptoutil.SignatureSize {
		return nil, ErrMalformed
	}
	body := b[:len(b)-cryptoutil.SignatureSize]
	sig := b[len(b)-cryptoutil.SignatureSize:]
	if !signer.VerifySig(body, sig) {
		return nil, ErrBadSignature
	}
	return body, nil
}

func appendTime(buf []byte, t time.Time) []byte {
	if t.IsZero() {
		return binary.BigEndian.AppendUint64(buf, 0)
	}
	return binary.BigEndian.AppendUint64(buf, uint64(t.UnixNano()))
}

func decodeTime(b []byte) (time.Time, []byte, error) {
	if len(b) < 8 {
		return time.Time{}, nil, ErrMalformed
	}
	v := binary.BigEndian.Uint64(b)
	b = b[8:]
	if v == 0 {
		return time.Time{}, b, nil
	}
	return time.Unix(0, int64(v)).UTC(), b, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func decodeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, ErrMalformed
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, ErrMalformed
	}
	return string(b[:n]), b[n:], nil
}

// CapExpiry returns the ticket expiry honouring the §IV-B rule: "no later
// than the soonest etime of all attributes listed in the ticket". wanted
// is the provider's configured lifetime endpoint.
func CapExpiry(wanted time.Time, attrs attr.List) time.Time {
	soonest := attrs.SoonestExpiry()
	if soonest.IsZero() || wanted.Before(soonest) {
		return wanted
	}
	return soonest
}

// String renders a short description for logs.
func (t *UserTicket) String() string {
	return fmt.Sprintf("UserTicket{IN=%d attrs=%d exp=%s}",
		t.UserIN, len(t.Attrs), t.Expiry.Format(time.RFC3339))
}

// String renders a short description for logs.
func (t *ChannelTicket) String() string {
	return fmt.Sprintf("ChannelTicket{IN=%d ch=%s renew=%v exp=%s}",
		t.UserIN, t.ChannelID, t.Renewal, t.Expiry.Format(time.RFC3339))
}
