package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
)

// A stdlib-only decoder for the subset of the pprof profile.proto format
// a Go CPU profile uses: enough to recover, per sample, the call stack as
// function names (leaf first, inlined frames expanded) and the CPU
// nanoseconds charged to it. The module has no dependencies and the
// benchmark adds none, so google/pprof is not an option.

// cpuSample is one profile sample: Stack[0] is the leaf function.
type cpuSample struct {
	Stack []string
	Nanos int64
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeUnit = 2

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// pbWalk calls fn for every top-level field of a protobuf message:
// varint and fixed-width fields arrive in v, length-delimited ones in
// data.
func pbWalk(msg []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("pprof: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0: // varint
			if v, n = binary.Uvarint(msg); n <= 0 {
				return fmt.Errorf("pprof: bad varint in field %d", num)
			}
			msg = msg[n:]
		case 1: // fixed64
			if len(msg) < 8 {
				return fmt.Errorf("pprof: short fixed64 in field %d", num)
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("pprof: bad length in field %d", num)
			}
			data, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5: // fixed32
			if len(msg) < 4 {
				return fmt.Errorf("pprof: short fixed32 in field %d", num)
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d in field %d", wire, num)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends one occurrence of a repeated integer field, which
// the encoder may have packed (data) or written singly (v).
func pbRepeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("pprof: bad packed varint")
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// decodeProfile reads a (gzip-compressed or raw) pprof CPU profile.
func decodeProfile(raw []byte) ([]cpuSample, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("pprof: gzip: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: gzip: %w", err)
		}
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		strs      []string
		typeUnits []uint64 // string index of each sample type's unit
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → name string index
	)
	err := pbWalk(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case profStringTable:
			strs = append(strs, string(data))
		case profSampleType:
			var unit uint64
			err := pbWalk(data, func(num int, v uint64, _ []byte) error {
				if num == valueTypeUnit {
					unit = v
				}
				return nil
			})
			typeUnits = append(typeUnits, unit)
			return err
		case profSample:
			var s rawSample
			err := pbWalk(data, func(num int, v uint64, data []byte) (err error) {
				switch num {
				case sampleLocationID:
					s.locs, err = pbRepeated(s.locs, v, data)
				case sampleValue:
					s.values, err = pbRepeated(s.values, v, data)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := pbWalk(data, func(num int, v uint64, data []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return pbWalk(data, func(num int, v uint64, _ []byte) error {
						if num == lineFunctionID {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case profFunction:
			var id, name uint64
			err := pbWalk(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// A Go CPU profile carries samples/count and cpu/nanoseconds.
	nanosAt := -1
	for i, u := range typeUnits {
		if str(u) == "nanoseconds" {
			nanosAt = i
		}
	}
	if nanosAt < 0 {
		return nil, fmt.Errorf("pprof: no nanoseconds sample type (not a CPU profile)")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if nanosAt >= len(s.values) {
			return nil, fmt.Errorf("pprof: sample has %d values, want > %d", len(s.values), nanosAt)
		}
		cs := cpuSample{Nanos: int64(s.values[nanosAt])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				cs.Stack = append(cs.Stack, str(funcNames[fn]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}
