package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerTotals decodes a gzipped pprof protobuf profile and sums the sample
// values of type valueType per layer (see charge). The standard library
// writes profiles but has no parser for them, hence the small decoder
// below for the part of profile.proto the attribution reads.
func layerTotals(data []byte, valueType string) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	vi := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == valueType {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile: no %q sample type", valueType)
	}
	locs := make(map[uint64][]uint64, len(p.locations))
	for _, l := range p.locations {
		locs[l.id] = l.funcs
	}
	names := make(map[uint64]string, len(p.functions))
	for _, f := range p.functions {
		names[f.id] = p.str(f.name)
	}
	totals := map[string]int64{}
	var stack []string
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		stack = stack[:0]
		for _, id := range s.locs {
			for _, fid := range locs[id] {
				stack = append(stack, names[fid])
			}
		}
		totals[charge(stack)] += s.values[vi]
	}
	return totals, nil
}

// gcFuncs are runtime functions that do garbage-collection work; a sample
// inside one is GC cost whichever code triggered it.
var gcFuncs = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcStart":           true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.sweepone":          true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
}

// charge names the layer a stack (innermost frame first) is charged to:
// the innermost frame that is GC work ("runtime_gc"), math/rand ("rand"),
// a quicspin/internal package (its name) or the benchmark's own code
// ("bench"). Anything else — scheduler, syscalls, other runtime — is
// "other".
func charge(stack []string) string {
	for _, fn := range stack {
		switch {
		case gcFuncs[fn]:
			return "runtime_gc"
		case strings.HasPrefix(fn, "math/rand."):
			return "rand"
		case strings.HasPrefix(fn, "quicspin/internal/"):
			pkg, _, _ := strings.Cut(strings.TrimPrefix(fn, "quicspin/internal/"), ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			return pkg
		case strings.HasPrefix(fn, "main."):
			return "bench"
		}
	}
	return "other"
}

// The subset of profile.proto the attribution needs.
type pbProfile struct {
	sampleTypes []int64 // string index of each value's type
	samples     []pbSample
	locations   []pbLocation
	functions   []pbFunction
	strings     []string
}

type pbSample struct {
	locs   []uint64
	values []int64
}

type pbLocation struct {
	id    uint64
	funcs []uint64 // function IDs, innermost inlined call first
}

type pbFunction struct {
	id   uint64
	name int64
}

func (p *pbProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{}
	err := eachField(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 1: // sample_type
			var typ int64
			err := eachField(sub, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case 2: // sample
			var s pbSample
			err := eachField(sub, func(f, w int, v uint64, packed []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, w, v, packed)
				case 2:
					var vals []uint64
					if err := appendUints(&vals, w, v, packed); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var l pbLocation
			err := eachField(sub, func(f, _ int, v uint64, line []byte) error {
				switch f {
				case 1:
					l.id = v
				case 4:
					return eachField(line, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations = append(p.locations, l)
			return err
		case 5: // function
			var fn pbFunction
			err := eachField(sub, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					fn.id = v
				case 2:
					fn.name = int64(v)
				}
				return nil
			})
			p.functions = append(p.functions, fn)
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, packed []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

var errBadProto = errors.New("profile: malformed protobuf")

// eachField walks the fields of one protobuf message. Varint fields arrive
// in v; length-delimited fields in sub. Fixed-width fields are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
			continue
		default:
			return errBadProto
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
