package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small stdlib-only reader of the pprof profile format (gzip-compressed
// protobuf, github.com/google/pprof/proto/profile.proto). It decodes only
// what CPU attribution needs: sample → location → function name.

// profSample is one stack with its values; stack holds function names
// leaf first, inlined callees before their caller.
type profSample struct {
	stack  []string
	values []int64
}

type cpuProfile struct {
	sampleTypes []string // e.g. "samples", "cpu"
	samples     []profSample
}

// pbField visits every field of one protobuf message. Varint and fixed
// fields arrive in v, length-delimited ones in b.
func pbFields(buf []byte, visit func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
			if err := visit(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := visit(num, 0, buf[n:n+int(l)]); err != nil {
				return err
			}
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints reads a repeated integer field that may arrive packed
// (b != nil) or as a single value.
func repeatedVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst, errors.New("profile: bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// decodeProfile parses a gzip-compressed pprof profile.
func decodeProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs       []string
		rawSamples []rawSample
		typeIdx    []uint64                // string index of each sample type
		locLines   = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName   = map[uint64]uint64{}   // function id → string index
	)
	err = pbFields(raw, func(num int, _ uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			return pbFields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample: {location_id=1, value=2}
			var s rawSample
			err := pbFields(b, func(n int, v uint64, bb []byte) (err error) {
				switch n {
				case 1:
					s.locs, err = repeatedVarints(s.locs, v, bb)
				case 2:
					s.values, err = repeatedVarints(s.values, v, bb)
				}
				return err
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location: {id=1, line=4{function_id=1}}
			var id uint64
			var fns []uint64
			err := pbFields(b, func(n int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return pbFields(bb, func(n int, v uint64, _ []byte) error {
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
		case 5: // function: {id=1, name=2}
			var id, name uint64
			err := pbFields(b, func(n int, v uint64, _ []byte) error {
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
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &cpuProfile{}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for _, rs := range rawSamples {
		s := profSample{values: make([]int64, len(rs.values))}
		for i, v := range rs.values {
			s.values[i] = int64(v)
		}
		for _, loc := range rs.locs {
			for _, fn := range locLines[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// layers are the repository's packages as the ledger names them, plus
// "other" for any erms/internal package not listed (topology, mapred,
// trace), "runtime" for stacks with no frame outside the Go runtime, and
// "bench" for the harness and the standard-library plumbing it drives.
var layers = append(append([]string(nil), internalLayers...), "erms", "other", "runtime", "bench")

// internalLayers are the erms/internal packages with a ledger row of
// their own.
var internalLayers = []string{
	"sim", "netsim", "hdfs", "auditlog", "cep", "core", "condor", "classad",
	"erasure", "federation", "workload", "metrics", "server",
}

func isInternalLayer(name string) bool {
	for _, l := range internalLayers {
		if l == name {
			return true
		}
	}
	return false
}

// pkgOf returns the package path of a Go symbol name such as
// "erms/internal/hdfs.(*Cluster).ReadFile". Type arguments of a generic
// instantiation ("pkg.F[other/pkg.T]") are cut off first: they hold
// slashes and dots of their own.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// isHarnessCheck reports whether fn is one of the harness's correctness
// checks (the check* functions of this package and their closures). A
// check that has to run inside a timed section calls deep into the system
// under test; its samples are the harness's, not the layer's.
func isHarnessCheck(fn string) bool {
	return strings.HasPrefix(fn, "main.check") || strings.HasPrefix(fn, "erms/benchmark.check")
}

// layerOf attributes one stack (leaf first) to the deepest repository
// package on it, or to "bench" when a harness check is anywhere on it. Of
// the system under test only package paths are consulted, so renaming a
// function inside a layer cannot move or zero its share.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if isHarnessCheck(fn) {
			return "bench"
		}
	}
	onlyRuntime := true
	for _, fn := range stack {
		pkg := pkgOf(fn)
		switch {
		case pkg == "erms":
			return "erms"
		case pkg == "main" || pkg == "erms/benchmark":
			return "bench"
		case strings.HasPrefix(pkg, "erms/internal/"):
			name := strings.TrimPrefix(pkg, "erms/internal/")
			if i := strings.IndexByte(name, '/'); i >= 0 {
				name = name[:i]
			}
			if isInternalLayer(name) {
				return name
			}
			return "other"
		}
		if pkg != "runtime" && !strings.HasPrefix(pkg, "runtime/") && !strings.HasPrefix(pkg, "internal/runtime/") {
			onlyRuntime = false
		}
	}
	if onlyRuntime {
		return "runtime"
	}
	return "bench"
}

// cpuByLayer sums a profile's CPU seconds per layer. It also returns the
// total and the share spent in background GC workers (stacks rooted at
// the runtime's mark worker).
func cpuByLayer(p *cpuProfile) (byLayer map[string]float64, total, gcBg float64) {
	vi := len(p.sampleTypes) - 1 // CPU profiles carry (samples, cpu ns)
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			vi = i
		}
	}
	byLayer = map[string]float64{}
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		sec := float64(s.values[vi]) / 1e9
		total += sec
		byLayer[layerOf(s.stack)] += sec
		if n := len(s.stack); n > 0 && s.stack[n-1] == "runtime.gcBgMarkWorker" {
			gcBg += sec
		}
	}
	return byLayer, total, gcBg
}
