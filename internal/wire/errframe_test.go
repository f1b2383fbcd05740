package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestCodeTaxonomyExhaustive round-trips every defined code through the
// frame codec and checks the name table is total: adding a code without a
// name (or a frame mapping) fails here, not in production.
func TestCodeTaxonomyExhaustive(t *testing.T) {
	seen := make(map[string]Code)
	for _, c := range Codes() {
		if !c.Valid() {
			t.Fatalf("Codes() yielded invalid code %d", uint16(c))
		}
		name := c.String()
		if name == "" || strings.HasPrefix(name, "code_") {
			t.Fatalf("code %d has no name", uint16(c))
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("codes %d and %d share the name %q", uint16(prev), uint16(c), name)
		}
		seen[name] = c

		serr := &ServiceError{Code: c, Msg: "m:" + name}
		got, err := DecodeErrorFrame(serr.Encode())
		if err != nil {
			t.Fatalf("code %s: decode: %v", c, err)
		}
		if got.Code != c || got.Msg != serr.Msg {
			t.Fatalf("code %s: round-trip = %+v", c, got)
		}
	}
	if int(codeMax) != len(codeNames) {
		t.Fatalf("codeNames has %d entries for %d codes", len(codeNames), codeMax)
	}
}

func TestCodeOutOfRange(t *testing.T) {
	c := codeMax
	if c.Valid() {
		t.Fatal("sentinel is valid")
	}
	if got := c.String(); !strings.HasPrefix(got, "code_") {
		t.Fatalf("out-of-range String() = %q", got)
	}
}

func TestDecodeErrorFrameRejectsUnknownCode(t *testing.T) {
	frame := (&ServiceError{Code: codeMax + 7, Msg: "x"}).Encode()
	if _, err := DecodeErrorFrame(frame); err == nil {
		t.Fatal("unknown code accepted")
	}
}

func TestDecodeErrorFrameRejectsTrailingBytes(t *testing.T) {
	frame := (&ServiceError{Code: CodeDenied, Msg: "x"}).Encode()
	if _, err := DecodeErrorFrame(append(frame, 0xAA)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestServiceErrorMessage(t *testing.T) {
	err := Errf(CodeBadTicket, "sig check failed on %d bytes", 32)
	if !strings.Contains(err.Error(), "bad_ticket") || !strings.Contains(err.Error(), "32 bytes") {
		t.Fatalf("Error() = %q", err.Error())
	}
	var se *ServiceError
	if !errors.As(error(err), &se) || se.Code != CodeBadTicket {
		t.Fatal("errors.As failed on ServiceError")
	}
}

func TestReplyEnvelopeSuccess(t *testing.T) {
	e := newEnc(64)
	AppendReply(e, []byte("payload"), nil)
	body, remote, err := DecodeReply(e.Bytes())
	if err != nil || remote != nil {
		t.Fatalf("err=%v remote=%v", err, remote)
	}
	if !bytes.Equal(body, []byte("payload")) {
		t.Fatalf("body = %q", body)
	}
}

func TestReplyEnvelopeError(t *testing.T) {
	e := newEnc(64)
	AppendReply(e, nil, Errf(CodeExpiredTicket, "lapsed"))
	body, remote, err := DecodeReply(e.Bytes())
	if err != nil || body != nil {
		t.Fatalf("err=%v body=%q", err, body)
	}
	if remote == nil || remote.Code != CodeExpiredTicket || remote.Msg != "lapsed" {
		t.Fatalf("remote = %+v", remote)
	}
}

func TestReplyEnvelopeCorruption(t *testing.T) {
	cases := [][]byte{
		nil,                  // empty
		{2},                  // invalid bool
		{0},                  // error flag but no frame
		{1},                  // ok flag but no blob
		{0, 0xFF, 0xFF},      // error flag, truncated frame
		{1, 0, 0, 0, 9, 'x'}, // ok flag, blob length overruns
	}
	for _, b := range cases {
		if _, _, err := DecodeReply(b); err == nil {
			t.Fatalf("corrupt envelope %v accepted", b)
		}
	}
}

// FuzzDecodeErrorFrame: the frame decoder must be total on arbitrary
// bytes, and anything it accepts must re-encode to the same frame.
func FuzzDecodeErrorFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add((&ServiceError{Code: CodeDenied, Msg: "denied"}).Encode())
	f.Add((&ServiceError{Code: codeMax, Msg: "bad"}).Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		serr, err := DecodeErrorFrame(b)
		if err != nil {
			return
		}
		if serr == nil {
			t.Fatal("nil error with nil decode error")
		}
		if !serr.Code.Valid() {
			t.Fatalf("decoder accepted invalid code %d", uint16(serr.Code))
		}
		if !bytes.Equal(serr.Encode(), b) {
			t.Fatalf("re-encode mismatch for %v", b)
		}
	})
}

// FuzzDecodeReply: the reply-envelope decoder must be total on arbitrary
// bytes and never yield both a body and a remote error.
func FuzzDecodeReply(f *testing.F) {
	ok := newEnc(16)
	AppendReply(ok, []byte("body"), nil)
	f.Add(ok.Bytes())
	bad := newEnc(16)
	AppendReply(bad, nil, Errf(CodeBadToken, "x"))
	f.Add(bad.Bytes())
	f.Add([]byte{})
	f.Add([]byte{1, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		body, remote, err := DecodeReply(b)
		if err != nil {
			return
		}
		if body != nil && remote != nil {
			t.Fatal("both body and remote error decoded")
		}
		if remote != nil && !remote.Code.Valid() {
			t.Fatalf("invalid remote code %d accepted", uint16(remote.Code))
		}
	})
}

// Codes enumerates every defined code (exhaustiveness tests iterate it).
func Codes() []Code {
	out := make([]Code, 0, codeMax)
	for c := Code(0); c < codeMax; c++ {
		out = append(out, c)
	}
	return out
}

// DecodeErrorFrame parses a standalone error frame: readErrorFrame, the
// decoder the reply envelope uses, behind the strict Finish check.
func DecodeErrorFrame(b []byte) (*ServiceError, error) {
	d := NewDec(b)
	serr := readErrorFrame(d)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return serr, nil
}
