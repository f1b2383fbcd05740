package wire

import (
	"fmt"
)

// Code enumerates every application-level failure the request-serving
// layers can answer with. The managers used to keep per-package string
// constants ("bad_token", "wrong_partition", ...); unifying them here
// gives every endpoint one taxonomy, lets the sealed transport carry
// errors as compact frames, and lets clients switch on typed errors
// instead of comparing strings across packages.
type Code uint16

// The taxonomy. Values are part of the wire format — append only.
const (
	// CodeUnknown is the zero value: an unclassified failure.
	CodeUnknown Code = iota
	// CodeMalformed: the request payload did not decode. Returned by the
	// service runtime itself, before the handler runs.
	CodeMalformed
	// CodeInternal: the handler failed for a reason the client cannot act
	// on (keygen failure, ...).
	CodeInternal
	// CodeBadEnvelope: a sealed-transport envelope was undecryptable.
	CodeBadEnvelope
	// CodeSealFailed: the sealed-transport response could not be sealed.
	CodeSealFailed
	// CodeBadFeed: a management feed push did not parse.
	CodeBadFeed

	// User Manager outcomes (§IV-F1).
	CodeNoAccount
	CodeWrongDomain
	CodeBadToken
	CodeDenied
	CodeBadAttestation
	CodeVersionTooOld

	// Channel (Policy) Manager outcomes (§IV-C, §IV-D, §IV-F2).
	CodeBadTicket
	CodeExpiredTicket
	CodeAddrMismatch
	CodeNoChannel
	CodeWrongPartition
	CodeRenewalDenied
	CodeRenewalWindow

	// Transport-policy outcomes. CodeBreakerOpen is raised locally by the
	// svc resilience layer when a destination's circuit is open; it shares
	// the taxonomy so callers switch on one code space for local and
	// remote failures alike.
	CodeBreakerOpen

	// Sharded-farm outcomes. CodeWrongShard means the addressed manager
	// does not own the account's key-range (the caller's shard map is
	// stale — re-resolve through the Redirection Manager and retry).
	// CodeOverloaded is an early rejection at a queue high-water mark:
	// the destination is alive but shedding, distinctly from an outage,
	// and the request was never processed (always safe to retry).
	CodeWrongShard
	CodeOverloaded

	// Overlay admission outcomes (§IV-F3). Joins used to be refused with
	// a bare reason string; typing them lets adversarial scenarios count
	// refusals by cause and lets the conformance oracle assert that every
	// replayed expired ticket was turned away with the right code.
	// CodeNoCapacity: the peer has no free child slots (or is reserving
	// its remaining slots for contributing peers — see CodeFreeRider).
	CodeNoCapacity
	// CodeDeparting: the peer is leaving the overlay and admits no one.
	CodeDeparting
	// CodeWrongChannel: the presented Channel Ticket names a different
	// channel than this peer carries.
	CodeWrongChannel
	// CodeFreeRider: a joiner advertising zero serving capacity was
	// refused because the peer reserves its remaining slots for
	// contributors.
	CodeFreeRider
	// CodeSeekTooDeep: a history seek asked for frames older than the
	// peer's retained window.
	CodeSeekTooDeep

	codeMax // sentinel: one past the last valid code
)

// codeNames keeps the historical snake_case strings (they appear in logs
// and test output).
var codeNames = [...]string{
	CodeUnknown:        "unknown",
	CodeMalformed:      "malformed",
	CodeInternal:       "internal",
	CodeBadEnvelope:    "bad_envelope",
	CodeSealFailed:     "seal_failed",
	CodeBadFeed:        "bad_feed",
	CodeNoAccount:      "no_account",
	CodeWrongDomain:    "wrong_domain",
	CodeBadToken:       "bad_token",
	CodeDenied:         "denied",
	CodeBadAttestation: "bad_attestation",
	CodeVersionTooOld:  "version_too_old",
	CodeBadTicket:      "bad_ticket",
	CodeExpiredTicket:  "expired_ticket",
	CodeAddrMismatch:   "addr_mismatch",
	CodeNoChannel:      "no_channel",
	CodeWrongPartition: "wrong_partition",
	CodeRenewalDenied:  "renewal_denied",
	CodeRenewalWindow:  "renewal_window",
	CodeBreakerOpen:    "breaker_open",
	CodeWrongShard:     "wrong_shard",
	CodeOverloaded:     "overloaded",
	CodeNoCapacity:     "no_capacity",
	CodeDeparting:      "departing",
	CodeWrongChannel:   "wrong_channel",
	CodeFreeRider:      "free_rider",
	CodeSeekTooDeep:    "seek_too_deep",
}

// String returns the code's stable snake_case name.
func (c Code) String() string {
	if int(c) < len(codeNames) {
		return codeNames[c]
	}
	return fmt.Sprintf("code_%d", uint16(c))
}

// Valid reports whether c is a defined code.
func (c Code) Valid() bool { return c < codeMax }

// ServiceError is the typed application-level error every request-serving
// endpoint answers with. On the plain simnet transport it travels by
// reference; on the sealed transport it is serialized as an error frame
// inside the reply envelope. Clients match it with errors.As.
type ServiceError struct {
	Code Code
	Msg  string
}

// Error implements the error interface.
func (e *ServiceError) Error() string { return "remote " + e.Code.String() + ": " + e.Msg }

// Errf builds a ServiceError with a formatted message.
func Errf(code Code, format string, args ...any) *ServiceError {
	if len(args) == 0 {
		return &ServiceError{Code: code, Msg: format}
	}
	return &ServiceError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// --- Error frame codec --------------------------------------------------
//
// Layout: code(u16) || msg(str). Used standalone (ServiceError.Encode)
// and inline inside the sealed transport's reply envelope.

// appendErrorFrame writes the frame fields onto an encoder.
func appendErrorFrame(e *Enc, serr *ServiceError) {
	e.u16(uint16(serr.Code))
	e.Str(serr.Msg)
}

// readErrorFrame reads the frame fields off a decoder. Unknown codes are
// a decode error: a frame is only valid if both ends agree on the code.
func readErrorFrame(d *Dec) *ServiceError {
	code := Code(d.u16())
	msg := d.Str()
	if d.Err() != nil {
		return nil
	}
	if !code.Valid() {
		d.err = fmt.Errorf("wire: unknown error code %d", uint16(code))
		return nil
	}
	return &ServiceError{Code: code, Msg: msg}
}

// Encode serializes the error as a standalone frame.
func (e *ServiceError) Encode() []byte {
	en := newEnc(2 + strLen(e.Msg))
	appendErrorFrame(en, e)
	return en.Bytes()
}

// --- Reply envelope ----------------------------------------------------
//
// The sealed transport (§IV-G1) carries outcomes inside the encrypted
// response so an eavesdropper learns nothing from them. Layout:
// ok(bool) || body(blob)            on success
// ok(bool) || errorFrame            on failure

// AppendReply writes a reply envelope onto an encoder: the body on
// success, the error frame when serr is non-nil.
func AppendReply(e *Enc, body []byte, serr *ServiceError) {
	if serr != nil {
		e.Bool(false)
		appendErrorFrame(e, serr)
		return
	}
	e.Bool(true)
	e.Blob(body)
}

// DecodeReply parses a reply envelope. A non-nil remote is the serialized
// ServiceError from the far side; err reports envelope corruption.
func DecodeReply(b []byte) (body []byte, remote *ServiceError, err error) {
	d := NewDec(b)
	ok := d.Bool()
	if d.Err() != nil {
		return nil, nil, d.Err()
	}
	if !ok {
		serr := readErrorFrame(d)
		if err := d.Finish(); err != nil {
			return nil, nil, err
		}
		return nil, serr, nil
	}
	body = d.Blob()
	if err := d.Finish(); err != nil {
		return nil, nil, err
	}
	return body, nil, nil
}
