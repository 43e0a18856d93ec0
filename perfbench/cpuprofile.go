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

// cpuShares attributes the CPU time of a runtime/pprof CPU profile (a
// gzipped profile.proto) to the goroutine roles of a search: samples
// whose outermost frame is a harness.StreamPool worker (the pool is
// generic, so it is named after its instantiation, often inlined into
// the caller) are engine work;
// other samples with a search frame are the single-threaded steering
// loop (planning, bandit, fold, minimize); the rest (GC, runtime) counts
// as neither. Both are CPU seconds.
func cpuShares(gz []byte) (engine, steer float64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return 0, 0, fmt.Errorf("reading cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return 0, 0, fmt.Errorf("reading cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return 0, 0, fmt.Errorf("decoding cpu profile: %w", err)
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) < 2 {
			continue
		}
		ns := float64(s.values[1]) / 1e9
		frames := p.frames(s.locs)
		switch {
		case len(frames) > 0 && strings.Contains(frames[len(frames)-1], "StreamPool["):
			engine += ns
		case anyPrefix(frames, "pef/internal/search."):
			steer += ns
		}
	}
	return engine, steer, nil
}

func anyPrefix(names []string, prefix string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// profile holds the parts of profile.proto the attribution reads.
type profile struct {
	samples   []pbSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type pbSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// frames returns the function names of a stack, innermost first.
func (p *profile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locations[l] {
			if i := p.functions[f]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// Field numbers of profile.proto.
const (
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profString     = 6
	sampleLocation = 1
	sampleValue    = 2
	locID          = 1
	locLine        = 4
	lineFunction   = 1
	funcID         = 1
	funcName       = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := fields(b, func(f int, v uint64, data []byte) error {
		switch f {
		case profSample:
			var s pbSample
			err := fields(data, func(f int, v uint64, data []byte) error {
				switch f {
				case sampleLocation:
					return repeated(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return repeated(v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(data, func(f int, v uint64, data []byte) error {
				switch f {
				case locID:
					id = v
				case locLine:
					return fields(data, func(f int, v uint64, _ []byte) error {
						if f == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			name := int64(-1)
			err := fields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// fields walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited payload (data is
// nil for varints). Fixed-width fields are skipped.
func fields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
	}
	return nil
}

// repeated handles a repeated varint field in either encoding: one
// unpacked value (data nil) or a packed run.
func repeated(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadProto
		}
		add(x)
		data = data[n:]
	}
	return nil
}

var errBadProto = errors.New("malformed protobuf")
