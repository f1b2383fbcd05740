package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// A minimal protobuf writer, enough to hand-build a profile.proto.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, data []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	p.bytes(field, inner)
}

func msg(build func(*pb)) []byte {
	var p pb
	build(&p)
	return p.b
}

func syntheticProfile() []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"crypto/ed25519.verify", "p2pdrm/internal/cryptoutil.PublicKey.VerifySig", "p2pdrm/internal/sim.(*Scheduler).Go.func1", "runtime.futex"}
	return msg(func(p *pb) {
		p.bytes(profSampleType, msg(func(p *pb) { p.varint(1, 1); p.varint(2, 2) })) // samples/count
		p.bytes(profSampleType, msg(func(p *pb) { p.varint(1, 3); p.varint(2, 4) })) // cpu/nanoseconds
		// Sample 1: packed ids; location 1 holds an inlined pair.
		p.bytes(profSample, msg(func(p *pb) { p.packed(sampleLocationID, 1, 2); p.packed(sampleValue, 3, 30_000_000) }))
		// Sample 2: the unpacked encoding of the same repeated fields.
		p.bytes(profSample, msg(func(p *pb) {
			p.varint(sampleLocationID, 3)
			p.varint(sampleValue, 1)
			p.varint(sampleValue, 10_000_000)
		}))
		line := func(fn uint64) []byte { return msg(func(p *pb) { p.varint(lineFunctionID, fn); p.varint(2, 42) }) }
		p.bytes(profLocation, msg(func(p *pb) {
			p.varint(locationID, 1)
			p.varint(3, 0xdeadbeef) // address, ignored
			p.bytes(locationLine, line(1))
			p.bytes(locationLine, line(2))
		}))
		p.bytes(profLocation, msg(func(p *pb) { p.varint(locationID, 2); p.bytes(locationLine, line(3)) }))
		p.bytes(profLocation, msg(func(p *pb) { p.varint(locationID, 3); p.bytes(locationLine, line(4)) }))
		for id, name := range map[uint64]uint64{1: 5, 2: 6, 3: 7, 4: 8} {
			p.bytes(profFunction, msg(func(p *pb) { p.varint(functionID, id); p.varint(functionName, name); p.varint(4, 0) }))
		}
		for _, s := range strs {
			p.bytes(profStringTable, []byte(s))
		}
		p.varint(12, 10_000_000) // period, ignored
	})
}

func TestDecodeSyntheticProfile(t *testing.T) {
	raw := syntheticProfile()
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write(raw)
	zw.Close()

	want := []cpuSample{
		{Stack: []string{"crypto/ed25519.verify", "p2pdrm/internal/cryptoutil.PublicKey.VerifySig", "p2pdrm/internal/sim.(*Scheduler).Go.func1"}, Nanos: 30_000_000},
		{Stack: []string{"runtime.futex"}, Nanos: 10_000_000},
	}
	for name, in := range map[string][]byte{"raw": raw, "gzip": zipped.Bytes()} {
		got, err := decodeProfile(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, want %+v", name, got, want)
		}
	}
	stackVals := costStack(want)
	if stackVals["cryptoutil.cpu_s"] != 0.03 || stackVals["go_runtime.other_cpu_s"] != 0.01 {
		t.Errorf("cost stack of the synthetic profile: %v", stackVals)
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	raw := syntheticProfile()
	if _, err := decodeProfile(raw[:len(raw)/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
	if _, err := decodeProfile(msg(func(p *pb) { p.bytes(profStringTable, nil) })); err == nil {
		t.Error("profile without a nanoseconds sample type decoded without error")
	}
}

// The decoder must also read what runtime/pprof really writes.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	block := make([]byte, 1<<16)
	for start := time.Now(); time.Since(start) < 150*time.Millisecond; {
		sha256.Sum256(block)
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("profiler took no sample in 150 ms")
	}
	var total int64
	hashed := false
	for _, s := range samples {
		total += s.Nanos
		for _, fn := range s.Stack {
			hashed = hashed || strings.HasPrefix(fn, "crypto/sha256")
		}
	}
	if total <= 0 || !hashed {
		t.Errorf("decoded %d samples, %d ns, sha256 on a stack: %v", len(samples), total, hashed)
	}
}
