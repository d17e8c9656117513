package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// hostLayers are the layers CPU samples are attributed to; each becomes
// the per-layer metric host.<layer>_s.
var hostLayers = []string{
	"sim_engine", "sim_resource", "gpu", "kernels", "core", "netsim", "graph",
	"serve", "chaos", "astra", "alloc", "gc", "sched", "runtime", "other",
}

// startProfile starts a CPU profile of the next measured run; a nil
// tracer profiles nothing.
func (t *tracer) startProfile() error {
	if t == nil {
		return nil
	}
	t.prof.Reset()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// stopProfile ends the profile startProfile began, keeps its bytes and
// adds its samples to the tracer's.
func (t *tracer) stopProfile() error {
	if t == nil {
		return nil
	}
	pprof.StopCPUProfile()
	data := append([]byte(nil), t.prof.Bytes()...)
	samples, err := parseProfile(data)
	if err != nil {
		return err
	}
	t.profiles = append(t.profiles, data)
	t.samples = append(t.samples, samples...)
	return nil
}

// sample is one profiled stack: function names leaf first (inlined
// frames expanded) and the CPU nanoseconds it stands for.
type sample struct {
	funcs []string
	ns    int64
}

// layerSeconds sums samples' CPU seconds per host layer.
func layerSeconds(samples []sample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[layerOf(s.funcs)] += float64(s.ns) / 1e9
	}
	return out
}

// layerOf names the host layer a sample's self time belongs to. GC work
// (background marking, assists, sweeping) wins wherever it appears in
// the stack. A sample whose leaf is in the runtime is scheduler time
// when it sits under a park, wake or channel operation — the engine's
// process handoffs — and allocation time under the allocator;
// otherwise, like a leaf in the standard library, it is charged to the
// nearest fusedcc frame above it. Within fusedcc, the package decides,
// except that sim.(*Resource) methods (the bandwidth-sharing model) are
// split from the rest of sim (event engine and processes).
func layerOf(funcs []string) string {
	if len(funcs) == 0 {
		return "other"
	}
	for _, f := range funcs {
		if isGC(f) {
			return "gc"
		}
	}
	if isRuntime(funcs[0]) {
		for _, f := range funcs {
			if isSched(f) {
				return "sched"
			}
		}
		for _, f := range funcs {
			if isAlloc(f) {
				return "alloc"
			}
		}
	}
	for _, f := range funcs {
		if l := packageLayer(f); l != "" {
			return l
		}
	}
	if isRuntime(funcs[0]) {
		return "runtime"
	}
	return "other"
}

func isRuntime(f string) bool {
	return strings.HasPrefix(f, "runtime.") || strings.HasPrefix(f, "internal/runtime/") ||
		strings.HasPrefix(f, "runtime/internal/")
}

var gcPrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
	"runtime.sweepone", "runtime.(*gcWork)", "runtime.(*mspan).sweep", "runtime.(*sweepLocked)",
	"runtime.wbBufFlush", "runtime.(*gcControllerState)",
}

func isGC(f string) bool { return hasAnyPrefix(f, gcPrefixes) }

var schedPrefixes = []string{
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.schedule", "runtime.park_m",
	"runtime.mcall", "runtime.findRunnable", "runtime.chansend", "runtime.chanrecv",
	"runtime.selectgo", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.execute",
	"runtime.gogo", "runtime.goschedImpl", "runtime.gosched_m", "runtime.runqget",
	"runtime.runqput", "runtime.runqgrab", "runtime.notesleep", "runtime.notewakeup",
	"runtime.casgstatus", "runtime.newproc",
}

func isSched(f string) bool { return hasAnyPrefix(f, schedPrefixes) }

var allocPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*mheap).alloc",
}

func isAlloc(f string) bool { return hasAnyPrefix(f, allocPrefixes) }

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// fusedccLayers maps fusedcc package paths to layers; other fusedcc
// packages (platform, models, facade) are "other".
var fusedccLayers = map[string]string{
	"fusedcc/internal/gpu":         "gpu",
	"fusedcc/internal/kernels":     "kernels",
	"fusedcc/internal/shmem":       "core",
	"fusedcc/internal/collectives": "core",
	"fusedcc/internal/core":        "core",
	"fusedcc/internal/fabric":      "core",
	"fusedcc/internal/netsim":      "netsim",
	"fusedcc/internal/graph":       "graph",
	"fusedcc/internal/serve":       "serve",
	"fusedcc/internal/chaos":       "chaos",
	"fusedcc/internal/astra":       "astra",
}

// packageLayer returns the layer of a fusedcc function name such as
// "fusedcc/internal/sim.(*Resource).reallocate", or "" outside fusedcc.
func packageLayer(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return ""
	}
	pkg, rest := fn[:slash+1+dot], fn[slash+2+dot:]
	if pkg != "fusedcc" && !strings.HasPrefix(pkg, "fusedcc/") {
		return ""
	}
	if pkg == "fusedcc/internal/sim" {
		if strings.HasPrefix(rest, "(*Resource)") {
			return "sim_resource"
		}
		return "sim_engine"
	}
	if l, ok := fusedccLayers[pkg]; ok {
		return l
	}
	return "other"
}

// parseProfile decodes a gzip-compressed pprof profile (profile.proto)
// into samples weighted by its CPU-time value.
func parseProfile(data []byte) ([]sample, error) {
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
		types     [][2]uint64 // sample_type: (type, unit) string indices
		funcName  = map[uint64]uint64{}
		locFuncs  = map[uint64][]uint64{}
		rawSample []struct{ locs, vals []uint64 }
	)
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			var vt [2]uint64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = v
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			var locs, vals []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					locs, err = appendVarints(locs, v, b)
				case 2:
					vals, err = appendVarints(vals, v, b)
				}
				return err
			})
			rawSample = append(rawSample, struct{ locs, vals []uint64 }{locs, vals})
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(f int, v uint64, _ []byte) error {
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
		case 5: // function
			var id, name uint64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
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
	value := len(types) - 1
	for i, t := range types {
		if int(t[0]) < len(strs) && strs[t[0]] == "cpu" {
			value = i
		}
	}
	if value < 0 {
		return nil, errors.New("profile: no sample types")
	}
	str := func(i uint64) string {
		if int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := make([]sample, 0, len(rawSample))
	for _, rs := range rawSample {
		if value >= len(rs.vals) {
			continue
		}
		s := sample{ns: int64(rs.vals[value])}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.funcs = append(s.funcs, str(funcName[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks the top-level fields of a protobuf message, handing fn
// each field number with its varint value (wire types 0, 1 and 5) or
// its bytes (wire type 2).
func fields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n == 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's value: v itself when
// unpacked, every varint in packed when the field arrived packed.
func appendVarints(dst []uint64, v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return append(dst, v), nil
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n == 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst, nil
}

// varint decodes one base-128 varint; n is 0 on malformed input.
func varint(b []byte) (v uint64, n int) {
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
