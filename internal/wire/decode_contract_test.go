package wire

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// decoderRow is one Decode* function of the package, with frames it
// accepts, in the shape the decode contract checks.
type decoderRow struct {
	name   string
	decode func([]byte) (any, error)
	frames [][]byte
}

// replyResult holds DecodeReply's results as one value.
type replyResult struct {
	Body   []byte
	Remote *ServiceError
}

// everyDecoder lists every Decode* function: the message decoders of
// everyMessage (each on its full and zero frame), plus the receiver-side
// ContentPush decode and the reply envelope. TestDecodeContract fails if
// a Decode* function is missing.
func everyDecoder() []decoderRow {
	var rows []decoderRow
	for _, m := range everyMessage {
		name, decode := "Decode"+reflect.TypeOf(m.full).Elem().Name(), m.decode
		if name == "DecodeServiceError" {
			name, decode = "DecodeErrorFrame", func(b []byte) (encoder, error) { return DecodeErrorFrame(b) }
		}
		rows = append(rows, decoderRow{
			name:   name,
			decode: func(b []byte) (any, error) { return decode(b) },
			frames: [][]byte{m.full.Encode(), m.zero.Encode()},
		})
	}
	push := (&ContentPush{ChannelID: "chA", Substream: 3, Seq: 77, Packet: []byte("pkt")}).Encode()
	rows = append(rows, decoderRow{
		name: "DecodeContentPushOn",
		decode: func(b []byte) (any, error) {
			m, err := DecodeContentPushOn(b, "chA")
			return &m, err
		},
		frames: [][]byte{push, (&ContentPush{}).Encode()},
	})
	reply := func(body []byte, serr *ServiceError) []byte {
		e := newEnc(0)
		AppendReply(e, body, serr)
		return e.Bytes()
	}
	rows = append(rows, decoderRow{
		name: "DecodeReply",
		decode: func(b []byte) (any, error) {
			body, remote, err := DecodeReply(b)
			return &replyResult{Body: body, Remote: remote}, err
		},
		frames: [][]byte{reply([]byte("body"), nil), reply(nil, nil), reply(nil, &ServiceError{Code: CodeBadToken, Msg: "lapsed"})},
	})
	return rows
}

// byteFields calls f on every []byte the decoded value v holds — fields,
// elements of [][]byte, through pointers — and stores what f returns in
// its place.
func byteFields(v reflect.Value, path string, f func(path string, b []byte) []byte) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			byteFields(v.Elem(), path, f)
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			byteFields(v.Field(i), path+"."+v.Type().Field(i).Name, f)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes(f(path, v.Bytes()))
			return
		}
		for i := 0; i < v.Len(); i++ {
			byteFields(v.Index(i), path+"[]", f)
		}
	}
}

// within reports whether every byte of f lies inside frame.
func within(f, frame []byte) bool {
	if len(f) == 0 || len(frame) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(f)))
	return p >= lo && p+uintptr(len(f)) <= lo+uintptr(len(frame))
}

// copyingDecode is the reference an in-place decode must equal: the
// decoder run on a private copy of b, every byte field then copied out
// and the private copy overwritten, so the result owns all its bytes as
// a copying decoder's would.
func copyingDecode(row decoderRow, b []byte) (any, error) {
	priv := bytes.Clone(b)
	v, err := row.decode(priv)
	byteFields(reflect.ValueOf(v), "", func(_ string, f []byte) []byte { return bytes.Clone(f) })
	for i := range priv {
		priv[i] = 0xA5
	}
	return v, err
}

// checkDecodeContract decodes b with row and checks the in-place decode
// contract: b is left untouched; every []byte the result holds is nil
// when empty, otherwise a view inside b with cap == len (so an append
// can never write into the frame); and the result equals a copying
// reference decode.
func checkDecodeContract(t *testing.T, row decoderRow, b []byte) {
	t.Helper()
	orig := bytes.Clone(b)
	got, err := row.decode(b)
	if !bytes.Equal(b, orig) {
		t.Errorf("%s wrote into its input", row.name)
		return
	}
	ref, refErr := copyingDecode(row, b)
	if (err == nil) != (refErr == nil) {
		t.Errorf("%s: in place err %v, copying reference err %v", row.name, err, refErr)
		return
	}
	if err != nil {
		return
	}
	byteFields(reflect.ValueOf(got), row.name, func(path string, f []byte) []byte {
		switch {
		case f == nil:
		case len(f) == 0:
			t.Errorf("%s: empty field decoded to a non-nil slice, want nil", path)
		case !within(f, b):
			t.Errorf("%s: not a view into the frame (copied, or pointing elsewhere)", path)
		case cap(f) != len(f):
			t.Errorf("%s: len %d cap %d — an append would write into the frame", path, len(f), cap(f))
		}
		return f
	})
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("%s: in place decode %+v, copying reference %+v", row.name, got, ref)
	}
}

// TestDecodeContract runs the decode contract over every Decode* function
// of the package, and fails if one is missing from everyDecoder.
func TestDecodeContract(t *testing.T) {
	covered := map[string]bool{}
	for _, row := range everyDecoder() {
		covered[row.name] = true
		for _, b := range row.frames {
			checkDecodeContract(t, row, b)
		}
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Decode") && !covered[fn.Name.Name] {
				missing = append(missing, fn.Name.Name)
			}
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("Decode functions with no everyDecoder row: %v", missing)
	}
}

// bytesPerDecode reports the heap bytes one call of f allocates,
// averaged over many calls.
func bytesPerDecode(f func()) float64 {
	const runs = 200
	f()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / runs
}

// TestDecodeAllocBudget: a decode allocates its message, its slice
// headers and its strings, never payload bytes. A frame whose byte fields
// are 4 KiB each decodes with as many allocations as one whose byte
// fields are one byte each, and in under 1 KiB.
func TestDecodeAllocBudget(t *testing.T) {
	const big = 4 << 10
	for _, m := range everyMessage {
		name := reflect.TypeOf(m.full).Elem().Name()
		withFields := func(n int) []byte {
			v, err := m.decode(m.full.Encode())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			byteFields(reflect.ValueOf(v), name, func(string, []byte) []byte { return bytes.Repeat([]byte{0x5A}, n) })
			return v.Encode()
		}
		small, large := withFields(1), withFields(big)
		smallObjs := testing.AllocsPerRun(100, func() { _, _ = m.decode(small) })
		largeObjs := testing.AllocsPerRun(100, func() { _, _ = m.decode(large) })
		if largeObjs != smallObjs {
			t.Errorf("%s: %v objects per decode with %d-byte fields, %v with 1-byte fields — a payload is copied", name, largeObjs, big, smallObjs)
		}
		if largeBytes := bytesPerDecode(func() { _, _ = m.decode(large) }); largeBytes >= 1<<10 {
			t.Errorf("%s: %.0f B per decode of a frame with %d-byte fields, want < 1 KiB — a payload is copied", name, largeBytes, big)
		}
	}
}
