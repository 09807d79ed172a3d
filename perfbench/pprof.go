package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime/metrics"
	"strings"
)

// profile is the part of a runtime/pprof CPU profile the per-layer
// shares need: each sample's stack (as function names, inlined frames
// included) and its CPU time. It decodes the gzipped profile.proto
// directly, so the benchmark needs nothing outside the standard library.
type profile struct {
	samples []profSample
}

type profSample struct {
	funcs []string
	value int64
}

// readProfile decodes the gzipped profile at path.
func readProfile(path string) (*profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type rawSample struct {
		locs  []uint64
		value int64
	}
	var samples []rawSample
	locFuncs := map[uint64][]uint64{}
	funcName := map[uint64]uint64{}
	var strs []string
	// profile.proto: 2 sample, 4 location, 5 function, 6 string_table.
	err = protoFields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s rawSample
			err := protoFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1: // location_id
					s.locs = appendVarints(s.locs, v, data)
				case 2: // value: the last one is cpu/nanoseconds
					if vals := appendVarints(nil, v, data); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := protoFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line: 1 function_id
					return protoFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := protoFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, s := range samples {
		ps := profSample{value: s.value}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ps.funcs = append(ps.funcs, strs[idx])
				}
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// cumShare is the share of CPU time whose stack holds a function match
// accepts (pprof's cumulative share).
func (p *profile) cumShare(match func(fn string) bool) float64 {
	var hit, total int64
	for _, s := range p.samples {
		total += s.value
		for _, fn := range s.funcs {
			if match(fn) {
				hit += s.value
				break
			}
		}
	}
	return ratio(float64(hit), float64(total))
}

// inPackage matches the functions and methods of one package path.
func inPackage(pkg string) func(fn string) bool {
	return func(fn string) bool {
		rest, ok := strings.CutPrefix(fn, pkg)
		return ok && strings.HasPrefix(rest, ".")
	}
}

var errTruncated = errors.New("truncated protobuf")

// protoFields walks the fields of one protobuf message, handing each to
// fn with its varint value (wire types 0, 1, 5) or its payload (wire
// type 2).
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return errors.New("unsupported protobuf wire type")
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value v
// when unpacked, or every varint in data when packed.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// gcCPUSeconds reads the runtime's estimates of the CPU time spent in
// the garbage collector and in total.
func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}
