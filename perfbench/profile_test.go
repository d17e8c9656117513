package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"sort"
	"testing"
)

func TestLayerOf(t *testing.T) {
	const sim = "fusedcc/internal/sim."
	cases := []struct {
		name   string
		frames []string // leaf first
		want   string
	}{
		{"resource model", []string{sim + "(*Resource).waterfill", sim + "(*Resource).reallocate", sim + "(*Engine).dispatch"}, "sim_resource"},
		{"resource closure", []string{sim + "(*Resource).TransferAsync.func1", sim + "(*Engine).dispatch"}, "sim_resource"},
		{"engine dispatch", []string{sim + "(*Engine).dispatch", sim + "(*Engine).run"}, "sim_engine"},
		{"process park", []string{sim + "(*Proc).Sleep", "fusedcc/internal/gpu.(*WG).Compute"}, "sim_engine"},
		{"std leaf charged to caller", []string{"container/heap.up", "container/heap.Push", sim + "(*Engine).enqueue"}, "sim_engine"},
		{"runtime leaf charged to caller", []string{"runtime.memmove", "fusedcc/internal/graph.(*Executor).Execute"}, "graph"},
		{"channel handoff", []string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm", "runtime.wakep", "runtime.ready", "runtime.goready", "runtime.send", "runtime.chansend", "runtime.chansend1", sim + "(*Proc).park"}, "sched"},
		{"idle scheduler", []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "sched"},
		{"background mark", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{"mark assist under malloc", []string{"runtime.scanobject", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc", "runtime.newobject", sim + "(*Engine).Go"}, "gc"},
		{"allocation", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", sim + "(*Engine).newEvent"}, "alloc"},
		{"gpu", []string{"fusedcc/internal/gpu.(*Device).LaunchGrid.func1", "runtime.goexit"}, "gpu"},
		{"kernels", []string{"fusedcc/internal/kernels.(*GEMV).Run", "fusedcc/internal/gpu.(*Device).Launch"}, "kernels"},
		{"collectives", []string{"fusedcc/internal/collectives.AllReduce"}, "core"},
		{"shmem", []string{"fusedcc/internal/shmem.(*World).Put"}, "core"},
		{"netsim", []string{"fusedcc/internal/netsim.SendAsync.func1", sim + "(*Engine).dispatch"}, "netsim"},
		{"serve", []string{"fusedcc/internal/serve.Run.func2"}, "serve"},
		{"chaos", []string{"fusedcc/internal/chaos.(*Sampler).Sample"}, "chaos"},
		{"astra", []string{"fusedcc/internal/astra.(*Simulator).TrainIterationOpt.func1"}, "astra"},
		{"model package", []string{"fusedcc/internal/dlrm.(*Model).interaction"}, "other"},
		{"benchmark", []string{"main.runOffline", "main.main"}, "other"},
		{"bare runtime", []string{"runtime.nanotime1", "runtime.sysmon", "runtime.mstart"}, "runtime"},
		{"empty", nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("%s: layerOf(%v) = %q, want %q", c.name, c.frames, got, c.want)
		}
	}
}

func TestLayerOfCoversHostLayers(t *testing.T) {
	known := map[string]bool{}
	for _, l := range hostLayers {
		known[l] = true
	}
	pkgs := make([]string, 0, len(fusedccLayers))
	for pkg := range fusedccLayers {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		if l := fusedccLayers[pkg]; !known[l] {
			t.Errorf("%s maps to layer %q, which is not in hostLayers", pkg, l)
		}
	}
	for _, l := range []string{"sim_engine", "sim_resource", "gc", "sched", "alloc", "runtime", "other"} {
		if !known[l] {
			t.Errorf("layer %q is not in hostLayers", l)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) key(field, wire int) { p.varint(uint64(field<<3 | wire)) }
func (p *pb) varint(v uint64)     { p.b = binary.AppendUvarint(p.b, v) }
func (p *pb) uint(field int, v uint64) {
	p.key(field, 0)
	p.varint(v)
}
func (p *pb) bytes(field int, b []byte) {
	p.key(field, 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}
func (p *pb) packed(field int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.varint(v)
	}
	p.bytes(field, q.b)
}

func TestParseProfile(t *testing.T) {
	var prof pb
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"fusedcc/internal/sim.(*Resource).waterfill", "fusedcc/internal/sim.(*Resource).reallocate", "main.main"}
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pb
		m.uint(1, vt[0])
		m.uint(2, vt[1])
		prof.bytes(1, m.b)
	}
	// Sample 1: packed fields, two locations (leaf first).
	var s1 pb
	s1.packed(1, 1, 2)
	s1.packed(2, 1, 10000000)
	prof.bytes(2, s1.b)
	// Sample 2: unpacked fields, one location.
	var s2 pb
	s2.uint(1, 2)
	s2.uint(2, 3)
	s2.uint(2, 30000000)
	prof.bytes(2, s2.b)
	// Location 1 holds an inlined frame: waterfill inlined into reallocate.
	for _, loc := range []struct {
		id  uint64
		fns []uint64
	}{{1, []uint64{10, 11}}, {2, []uint64{12}}} {
		var l pb
		l.uint(1, loc.id)
		l.uint(3, 0x1000) // address: skipped
		for _, fn := range loc.fns {
			var line pb
			line.uint(1, fn)
			line.uint(2, 42)
			l.bytes(4, line.b)
		}
		prof.bytes(4, l.b)
	}
	for i, fn := range []uint64{10, 11, 12} {
		var f pb
		f.uint(1, fn)
		f.uint(2, uint64(5+i))
		prof.bytes(5, f.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	prof.uint(10, 123) // duration_nanos: skipped

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	want0 := []string{strs[5], strs[6], strs[7]}
	if len(samples[0].funcs) != 3 || samples[0].funcs[0] != want0[0] || samples[0].funcs[1] != want0[1] || samples[0].funcs[2] != want0[2] {
		t.Errorf("sample 0 frames %v, want %v", samples[0].funcs, want0)
	}
	if samples[0].ns != 10000000 || samples[1].ns != 30000000 {
		t.Errorf("sample values %d, %d; want the cpu column 10000000, 30000000", samples[0].ns, samples[1].ns)
	}
	secs := layerSeconds(samples)
	if secs["sim_resource"] != 0.01 || secs["other"] != 0.03 {
		t.Errorf("layer seconds %v, want sim_resource 0.01 and other 0.03", secs)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted non-gzip input")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write([]byte{0x12, 0x05, 0x01}); err != nil { // length past the end
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("parseProfile accepted a truncated message")
	}
}
