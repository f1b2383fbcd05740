// Package wire defines the binary codec for every DRM protocol message:
// the login rounds LOGIN1/LOGIN2 (§IV-F1), the channel-switching rounds
// SWITCH1/SWITCH2 (§IV-F2), the peer JOIN round (§IV-F3), Channel List
// retrieval from the Channel Policy Manager, Redirection Manager lookups,
// and the overlay's key/content push messages.
//
// Encoding is hand-rolled big-endian with length-prefixed variable fields
// — no reflection, deterministic output, and hard limits on decoded
// sizes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Codec errors.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrTooLarge  = errors.New("wire: field exceeds size limit")
)

// maxField bounds any single decoded byte field (1 MiB).
const maxField = 1 << 20

// maxSlice bounds decoded repeat counts.
const maxSlice = 1 << 16

// Enc accumulates an encoding.
type Enc struct {
	b []byte
}

// newEnc creates an encoder with capacity bytes of room. Every message's
// Encode passes the exact size of its output, computed from its fields
// (fixed-width fields are their width; see blobLen and friends), so the
// returned buffer is one allocation with len == cap: it is retained by
// the network until delivery, and a guess either wastes the slack for
// that long or pays append-growth on the way.
func newEnc(capacity int) *Enc { return &Enc{b: make([]byte, 0, capacity)} }

// Encoded sizes of the variable-length field kinds.
func blobLen(p []byte) int { return 4 + len(p) }
func strLen(s string) int  { return 4 + len(s) }

func strSliceLen(ss []string) int {
	n := 4
	for _, s := range ss {
		n += strLen(s)
	}
	return n
}

func blobSliceLen(bs [][]byte) int {
	n := 4
	for _, b := range bs {
		n += blobLen(b)
	}
	return n
}

// encPool recycles encoders whose output does not escape the call site
// (handshake tokens, transport envelopes: the bytes are copied by a
// sealer before the encoder is returned).
var encPool = sync.Pool{New: func() any { return new(Enc) }}

// maxPooledCap drops oversized buffers instead of pinning them in the
// pool forever.
const maxPooledCap = 1 << 16

// GetEnc returns a pooled encoder with at least capacity bytes of room.
// Pair with PutEnc once the encoded bytes have been consumed (copied or
// sealed); the per-RPC encoder allocation then disappears from hot paths.
func GetEnc(capacity int) *Enc {
	e := encPool.Get().(*Enc)
	if cap(e.b) < capacity {
		e.b = make([]byte, 0, capacity)
	} else {
		e.b = e.b[:0]
	}
	return e
}

// PutEnc resets e and returns it to the pool. The caller must not touch
// e — or any slice previously obtained from Bytes — afterwards.
func PutEnc(e *Enc) {
	if cap(e.b) > maxPooledCap {
		return
	}
	e.reset()
	encPool.Put(e)
}

// reset clears the encoder for reuse, keeping its buffer.
func (e *Enc) reset() { e.b = e.b[:0] }

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.b }

// u8 appends one byte.
func (e *Enc) u8(v uint8) { e.b = append(e.b, v) }

// u16 appends a big-endian uint16.
func (e *Enc) u16(v uint16) { e.b = binary.BigEndian.AppendUint16(e.b, v) }

// U32 appends a big-endian uint32.
func (e *Enc) U32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }

// u64 appends a big-endian uint64.
func (e *Enc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }

// Bool appends a 0/1 byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// instant appends a time as unix nanos (0 = zero time).
func (e *Enc) instant(t time.Time) {
	if t.IsZero() {
		e.u64(0)
		return
	}
	e.u64(uint64(t.UnixNano()))
}

// Blob appends a u32-length-prefixed byte field.
func (e *Enc) Blob(p []byte) {
	e.U32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// Str appends a u32-length-prefixed string.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// strSlice appends a count-prefixed string list.
func (e *Enc) strSlice(ss []string) {
	e.U32(uint32(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

// blobSlice appends a count-prefixed list of byte fields.
func (e *Enc) blobSlice(bs [][]byte) {
	e.U32(uint32(len(bs)))
	for _, b := range bs {
		e.Blob(b)
	}
}

// Dec consumes an encoding with sticky error handling: after the first
// failure all reads return zero values and Err reports the failure.
type Dec struct {
	b   []byte
	err error
}

// NewDec creates a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Finish returns an error if decoding failed or bytes remain.
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(d.b))
	}
	return nil
}

func (d *Dec) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

// u8 reads one byte.
func (d *Dec) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// u16 reads a big-endian uint16.
func (d *Dec) u16() uint16 {
	if d.err != nil || len(d.b) < 2 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v
}

// U32 reads a big-endian uint32.
func (d *Dec) U32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

// u64 reads a big-endian uint64.
func (d *Dec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// Bool reads a 0/1 byte (anything else is an error).
func (d *Dec) Bool() bool {
	v := d.u8()
	if d.err != nil {
		return false
	}
	switch v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.err = fmt.Errorf("wire: bad bool byte %d", v)
		return false
	}
}

// instant reads a unix-nano time (0 = zero time).
func (d *Dec) instant() time.Time {
	v := d.u64()
	if d.err != nil || v == 0 {
		return time.Time{}
	}
	return time.Unix(0, int64(v)).UTC()
}

// field consumes a length-prefixed byte field and returns it as a view
// into the input.
func (d *Dec) field() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > maxField {
		d.err = ErrTooLarge
		return nil
	}
	if len(d.b) < int(n) {
		d.fail()
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// Blob reads a length-prefixed byte field as a view into the input, not
// a copy: a payload is immutable once handed to the network (see
// simnet.Node.Send), so a decoded message shares the frame's bytes. The
// view's capacity is capped at the field's length, so an append to it
// reallocates instead of writing into the frame. An empty field decodes
// to nil. A caller must not write into the result; one that keeps a small
// field of a large frame for long pins the whole frame.
func (d *Dec) Blob() []byte {
	f := d.field()
	if len(f) == 0 {
		return nil
	}
	return f[:len(f):len(f)]
}

// Str reads a length-prefixed string (one copy, straight from the input).
func (d *Dec) Str() string {
	return string(d.field())
}

// strAs is Str returning want itself, with no copy, when the field
// spells it: a receiver that knows the value it expects decodes it
// without allocating.
func (d *Dec) strAs(want string) string {
	if f := d.field(); string(f) != want {
		return string(f)
	}
	return want
}

// strSlice reads a count-prefixed string list.
func (d *Dec) strSlice() []string {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > maxSlice {
		d.err = ErrTooLarge
		return nil
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, d.Str())
		if d.err != nil {
			return nil
		}
	}
	return out
}

// blobSlice reads a count-prefixed list of byte fields, each a view like
// Blob's.
func (d *Dec) blobSlice() [][]byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > maxSlice {
		d.err = ErrTooLarge
		return nil
	}
	out := make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, d.Blob())
		if d.err != nil {
			return nil
		}
	}
	return out
}
