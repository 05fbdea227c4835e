package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// Layer attribution. runtime/pprof writes profiles as gzipped
// profile.proto messages; this file decodes the few fields attribution
// needs with the standard library alone, and charges every sample to
// the innermost dx100/internal/<module> frame on its stack, so runtime
// helpers (memmove, duffcopy, mallocgc) count against the module that
// called them. A stack with no such frame is GC or other background
// runtime work when every frame is in the runtime, and "other"
// (the benchmark's own code, net/http, ...) otherwise.

// profile is the decoded subset of a pprof profile.
type profile struct {
	sampleTypes []string // value names, e.g. "samples", "cpu"
	samples     []profSample
	period      int64
	funcs       map[uint64][]string // location id -> function names, innermost first
}

type profSample struct {
	locs   []uint64 // innermost first
	values []int64
}

// parseProfile decodes a gzipped pprof profile.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		typeIdx   []uint64
		locLines  = map[uint64][]uint64{} // location id -> function ids
		funcNames = map[uint64]uint64{}   // function id -> string index
		p         = &profile{funcs: map[uint64][]string{}}
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type = 1}
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample: {location_id = 1, value = 2}
			var s profSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return eachPacked(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachPacked(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: {id = 1, line = 4 {function_id = 1}}
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function: {id = 1, name = 2}
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		case 12: // period
			p.period = int64(v)
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
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	// A location's lines list inlined calls innermost first.
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcNames[f])
		}
		p.funcs[id] = names
	}
	return p, nil
}

// valueIndex finds the sample value of the given type.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile: no %q sample type in %v", typ, p.sampleTypes)
}

// bucketOf names the layer a sample is charged to.
func (p *profile) bucketOf(s profSample) string {
	allRuntime := true
	for _, loc := range s.locs {
		for _, fn := range p.funcs[loc] {
			if m := moduleOf(fn); m != "" {
				for _, known := range modules {
					if m == known {
						return m
					}
				}
				return "other"
			}
			if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "internal/runtime/") {
				allRuntime = false
			}
		}
	}
	if allRuntime {
		return "runtime.gc"
	}
	return "other"
}

// moduleOf returns the dx100/internal module of a function name: its
// first path element under dx100/internal/, or "" for any other code.
func moduleOf(fn string) string {
	const prefix = "dx100/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// buckets sums the value of one sample type per layer, plus the
// profile total.
func (p *profile) buckets(typ string) (map[string]int64, int64, error) {
	vi, err := p.valueIndex(typ)
	if err != nil {
		return nil, 0, err
	}
	out := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, 0, errors.New("profile: sample with too few values")
		}
		out[p.bucketOf(s)] += s.values[vi]
		total += s.values[vi]
	}
	return out, total, nil
}

// cpuTolerance bounds how far a CPU profile's total may stray from the
// process CPU time measured over the same section: a share of that
// time plus a fixed slack for the sampling period each thread leaves
// unfinished.
const (
	cpuTolerance = 0.10
	cpuSlackS    = 0.05
)

// cpuLayers charges a CPU profile's time to layers: <module>.host_s,
// runtime.gc_s and other.host_s, which add up to profile.total_s
// because every sample lands in exactly one bucket. What is checked is
// the total itself, against cpuS, the process CPU time (getrusage)
// over the profiled section: a decoder that dropped samples or
// locations, or misread values, would miss it.
func cpuLayers(data []byte, cpuS float64) (map[string]float64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	ns, total, err := p.buckets("cpu")
	if err != nil {
		return nil, err
	}
	totalS := float64(total) / 1e9
	if d := math.Abs(totalS - cpuS); d > cpuTolerance*cpuS+cpuSlackS {
		return nil, fmt.Errorf("profile: cpu total %.3f s, process cpu time %.3f s over the same section", totalS, cpuS)
	}
	out := map[string]float64{}
	for b, v := range ns {
		name := b + ".host_s"
		if b == "runtime.gc" {
			name = "runtime.gc_s"
		}
		out[name] = float64(v) / 1e9
	}
	out["profile.total_s"] = totalS
	return out, nil
}

// allocLayers charges the bytes allocated between two heap profiles
// (alloc_space is cumulative since process start) to layers as
// <module>.alloc_mb and other.alloc_mb, which add up to
// profile.alloc_mb. Allocation profiles are sampled (one sample per
// runtime.MemProfileRate bytes on average) and scaled by pprof, so the
// figures are estimates.
func allocLayers(before, after []byte) (map[string]float64, error) {
	var got [2]map[string]int64
	for i, data := range [][]byte{before, after} {
		p, err := parseProfile(data)
		if err != nil {
			return nil, err
		}
		got[i], _, err = p.buckets("alloc_space")
		if err != nil {
			return nil, err
		}
	}
	out := map[string]float64{}
	var sum int64
	for b, v := range got[1] {
		d := v - got[0][b]
		sum += d
		if b == "runtime.gc" {
			b = "other" // the runtime's own allocations are not a layer
		}
		out[b+".alloc_mb"] += float64(d) / 1e6
	}
	out["profile.alloc_mb"] = float64(sum) / 1e6
	return out, nil
}

// eachField walks a protobuf message, calling f with each field's
// number and its varint value (wire types 0, 1, 5) or bytes (wire type
// 2).
func eachField(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// eachPacked decodes a repeated varint field in either encoding: one
// unpacked value v (body nil), or a packed run in body.
func eachPacked(v uint64, body []byte, f func(uint64)) error {
	if body == nil {
		f(v)
		return nil
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		f(x)
		body = body[n:]
	}
	return nil
}
