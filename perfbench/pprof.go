package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the benchmark
// reads: per-sample CPU time and call stacks, as function names, leaf
// first.
type cpuProfile struct {
	stacks [][]string
	values []int64 // CPU nanoseconds per stack
}

// errProfile reports a profile this minimal decoder cannot read.
var errProfile = errors.New("malformed profile")

// parseProfile decodes a gzipped profile.proto message (the format
// runtime/pprof writes). It reads only samples, locations, functions
// and the string table.
func parseProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		funcNames = map[uint64]int64{}    // function ID -> string index
		strs      []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					ids, err := packed(v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := packed(v, b)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errProfile
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, errProfile
				}
				stack = append(stack, strs[idx])
			}
		}
		p.stacks = append(p.stacks, stack)
		p.values = append(p.values, s.values[1])
	}
	return p, nil
}

// protoFields walks one protobuf message, calling fn with each field's
// number and its varint value or length-delimited bytes.
func protoFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProfile
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProfile
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			b = b[4:]
		default:
			return errProfile
		}
	}
	return nil
}

// packed decodes a repeated varint field given either one unpacked value
// (data == nil) or a packed run.
func packed(v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProfile
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}

// profileLayers are the per-package profile buckets: a sample's CPU time
// goes to the package of its leaf function.
var profileLayers = []string{
	"event", "sim", "cache", "core", "prefetch", "memctrl", "dram", "noc",
	"workload", "snapshot", "service", "cluster",
}

// gcRoots are the runtime functions under which all garbage-collector
// work runs.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// shares returns each layer's flat share of the profile's CPU time
// (prof.<layer>), plus Go map operations (prof.runtime_map) and garbage
// collection (prof.gc, by stack).
func (p *cpuProfile) shares(v map[string]float64) {
	var total int64
	acc := make(map[string]int64)
	for i, stack := range p.stacks {
		val := p.values[i]
		total += val
		if len(stack) == 0 {
			continue
		}
		if underGC(stack) {
			acc["gc"] += val
			continue
		}
		leaf := stack[0]
		switch {
		case strings.HasPrefix(leaf, "internal/runtime/maps."), strings.HasPrefix(leaf, "runtime.map"):
			acc["runtime_map"] += val
		default:
			if pkg, ok := strings.CutPrefix(funcPackage(leaf), "bump/internal/"); ok {
				acc[pkg] += val
			}
		}
	}
	for _, l := range append(profileLayers, "runtime_map", "gc") {
		share := 0.0
		if total > 0 {
			share = float64(acc[l]) / float64(total)
		}
		v["prof."+l] = share
	}
}

func underGC(stack []string) bool {
	for _, fn := range stack {
		for _, r := range gcRoots {
			if fn == r {
				return true
			}
		}
	}
	return false
}

// funcPackage returns the import path of a symbol name such as
// "bump/internal/cache.(*Cache).Lookup".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
