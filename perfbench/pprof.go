package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file decodes the part of a runtime/pprof profile (gzipped
// profile.proto) that the per-layer split needs: each sample's values and
// its call stack as function names, innermost frame first. The standard
// library writes profiles but has no reader, and the repository takes no
// dependencies, so the few protobuf fields involved are decoded by hand.

// profile is a decoded pprof profile.
type profile struct {
	sampleTypes []string // value names, e.g. "cpu", "alloc_space"
	samples     []profSample
}

type profSample struct {
	stack  []string // function names, innermost first (inlined frames included)
	values []int64  // one per sample type
}

// valueIndex returns the index of the named sample type, or -1.
func (p *profile) valueIndex(name string) int {
	for i, t := range p.sampleTypes {
		if t == name {
			return i
		}
	}
	return -1
}

var errProto = errors.New("malformed profile")

// protoFields calls fn once per field of one protobuf message. For varint
// and fixed-width fields v holds the value and b is nil; for
// length-delimited fields b holds the payload (non-nil, possibly empty).
func protoFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num := int(key >> 3)
		var (
			v uint64
			b []byte
		)
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errProto
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendInts appends a repeated integer field's values; the encoder writes
// such fields packed (b != nil) or as one field per value (b == nil).
func appendInts(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}

// parseProfile decodes a gzipped pprof profile as runtime/pprof writes it.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs      []string
		typeNames []uint64
		samples   []rawSample
		funcName  = map[uint64]uint64{}   // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = protoFields(raw, func(num int, _ uint64, b []byte) error {
		if b == nil {
			return nil
		}
		switch num {
		case 1: // sample_type: ValueType{type = 1}
			return protoFields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeNames = append(typeNames, v)
				}
				return nil
			})
		case 2: // sample: Sample{location_id = 1, value = 2}
			var s rawSample
			err := protoFields(b, func(n int, v uint64, sb []byte) error {
				switch n {
				case 1:
					s.locs = appendInts(s.locs, v, sb)
				case 2:
					s.vals = appendInts(s.vals, v, sb)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location: Location{id = 1, line = 4: Line{function_id = 1}}
			var id uint64
			var fns []uint64
			err := protoFields(b, func(n int, v uint64, lb []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && lb != nil:
					return protoFields(lb, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function: Function{id = 1, name = 2}
			var id, name uint64
			err := protoFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{}
	for _, t := range typeNames {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	for _, s := range samples {
		ps := profSample{values: make([]int64, len(s.vals))}
		for i, v := range s.vals {
			ps.values[i] = int64(v)
		}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ps.stack = append(ps.stack, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}
