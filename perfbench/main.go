// Command perfbench is the repository's benchmark. It runs one named
// workload through the public fusedcc facade and the stack, serve,
// chaos and astra packages, checks the outputs outside the timed
// phase, and prints its metrics as one JSON object on the last line of
// standard output.
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash perfbench/run.sh --workload offline-2x4 --seed 1 --seconds 10 --trace 0
//
// A run repeats the workload's pass (set-up, then the measured
// execution) until --seconds of host time have elapsed, with at least
// minPasses passes, and reports medians. Simulated metrics must repeat
// exactly from pass to pass; a pass that disagrees counts as a failed
// operation. With --trace 1 the run first repeats the untraced
// measurement for half the budget, then traces the other half (spans
// plus a CPU profile), and prints the per-layer metrics instead of the
// end-to-end ones.
//
//detlint:allow wallclock -- host speed measurement, never fed into simulated time
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"fusedcc"
)

const (
	// maxProcs caps GOMAXPROCS at the two CPUs of the reference host.
	maxProcs = 2
	// minPasses is the fewest measured passes a phase runs, so every
	// reported host time is a median of several.
	minPasses = 3
	// A pass repeats its set-up minSetupReps times, and up to setupReps
	// times while the repetitions take under setupBudget seconds, and
	// runs the last: a set-up of a few milliseconds still reports a
	// steady median. A reusable set-up runs only before the first pass.
	minSetupReps = 3
	setupReps    = 5
	setupBudget  = 0.25
)

// prepared is one pass's set-up result: run executes the measured part
// once, or once per pass when reusable; check, when set, verifies the
// first pass's result outside the timed phase; graphs are the stack
// graphs the traced run times the planner passes on.
type prepared struct {
	run      func(tr *tracer, parent int) passResult
	reusable bool
	check    func(first passResult) []string
	graphs   []*fusedcc.Graph
}

// passResult is what one measured pass produced.
type passResult struct {
	ops, failed int
	// steps counts stack executions (executor steps) in the pass.
	steps int
	// sim holds the end-to-end simulated metrics; they depend only on
	// the seed and must repeat exactly.
	sim map[string]float64
	// layer holds per-layer counters read from the layers' own reports.
	layer map[string]float64
	errs  []string
}

// workload names one benchmark input set and how to prepare a pass.
type workload struct {
	name    string
	prepare func(seed int64, tr *tracer, parent int) (*prepared, error)
	// check runs once per process before measuring (functional
	// bit-exactness), outside the timed phase.
	check func(seed int64) (ops int, errs []string)
}

var workloads = []workload{
	{name: "offline-2x4", prepare: prepareOffline, check: checkOfflineStacks},
	{name: "serve-dlrm", prepare: prepareServe(false), check: checkDLRMStack},
	{name: "serve-dlrm-faults", prepare: prepareServe(true), check: checkDLRMStack},
	{name: "astra-128", prepare: prepareAstra},
}

// phase accumulates the passes of one measurement loop.
type phase struct {
	setup, wall, allocMB, gcCycles []float64
	// ref holds each pass's host-reference time; wallRef each pass's
	// measured time divided by it.
	ref, wallRef               []float64
	first                      *passResult
	ops, failed, steps, passes int
	errs                       []string
	engine                     fusedcc.EngineStats // engine counter growth over the measured executions
	allocBytes                 uint64
	planner                    map[string][]float64
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 1, "workload seed: every generated input derives from it")
		seconds = flag.Float64("seconds", 10, "host seconds the run measures for")
		trace   = flag.Int("trace", 0, "1 runs the traced measurement and prints per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and CPU profiles")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", workloadNames())
		os.Exit(2)
	}
	procs := runtime.NumCPU()
	if procs > maxProcs {
		procs = maxProcs
	}
	runtime.GOMAXPROCS(procs)
	fmt.Printf("host: num_cpu=%d gomaxprocs=%d go=%s workload=%s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), w.name, *seed, *seconds, *trace)

	res, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, e := range res.errs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
	}
	line, err := json.Marshal(res.output())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// result is a finished run: the metric values by name plus the
// operation counts and check failures.
type result struct {
	metrics     []metricDef
	values      map[string]float64
	ops, failed int
	errs        []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) output() output {
	o := output{Correct: len(r.errs) == 0, Attempted: r.ops, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range r.metrics {
		o.Metrics[m.name] = metricValue{Value: r.values[m.name], Unit: m.unit}
	}
	return o
}

// runWorkload runs the functional check, then the untraced measurement
// and, when traced, the traced measurement.
func runWorkload(w workload, seed int64, budget time.Duration, traced bool, outDir string) (*result, error) {
	res := &result{values: map[string]float64{}}
	if w.check != nil {
		ops, errs := w.check(seed)
		res.ops += ops
		res.failed += len(errs)
		res.errs = append(res.errs, errs...)
	}
	if !traced {
		ph, err := measure(w, seed, budget, nil)
		if err != nil {
			return nil, err
		}
		res.absorb(ph)
		res.metrics = endToEnd
		for k, v := range ph.first.sim {
			res.values[k] = v
		}
		res.values["wall_s"] = refNominal * median(ph.wallRef)
		res.values["setup_s"] = refNominal * median(ph.setup) / median(ph.ref)
		res.values["alloc_mb"] = median(ph.allocMB)
		res.values["max_rss_mb"] = maxRSSMB()
		return res, nil
	}

	plain, err := measure(w, seed, budget/2, nil)
	if err != nil {
		return nil, err
	}
	res.absorb(plain)
	tr := newTracer()
	traced2, err := measure(w, seed, budget/2, tr)
	if err != nil {
		return nil, err
	}
	res.absorb(traced2)
	res.metrics = perLayer
	layerValues(res.values, plain, traced2, tr.samples)
	res.values["trace.spans"] = float64(tr.hostSpans())
	if sameSim(plain.first.sim, traced2.first.sim) {
		res.values["trace.sim_equal"] = 1
	} else {
		res.failed++
		res.errs = append(res.errs, fmt.Sprintf("traced sim metrics %v differ from untraced %v", traced2.first.sim, plain.first.sim))
	}
	base := fmt.Sprintf("%s-seed%d", w.name, seed)
	if err := writeArtifacts(outDir, base, tr, res.values); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *result) absorb(ph *phase) {
	r.ops += ph.ops
	r.failed += ph.failed
	r.errs = append(r.errs, ph.errs...)
}

// measure repeats passes of w until budget has elapsed and at least
// minPasses ran. Each pass times its set-up and measured execution
// separately, each after a GC, so neither pays for the other's garbage,
// and times the host reference before the set-up and after the
// execution; the pass's reference time is the mean of the two.
func measure(w workload, seed int64, budget time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{planner: map[string][]float64{}}
	var p *prepared
	start := time.Now()
	for ph.passes < minPasses || time.Since(start) < budget {
		passSpan := tr.begin("pass:"+w.name, 0)
		if p != nil && !p.reusable {
			p = nil // release the last pass's worlds before the reference
		}
		runtime.GC()
		refSpan := tr.begin("reference", passSpan)
		refBefore := hostReference()
		tr.end(refSpan)
		for r, spent := 0, 0.0; (p == nil || !p.reusable) && r < setupReps && (r < minSetupReps || spent < setupBudget); r++ {
			runtime.GC()
			setupSpan := tr.begin("setup", passSpan)
			t0 := time.Now()
			var err error
			if p, err = w.prepare(seed, tr, setupSpan); err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
			}
			d := time.Since(t0).Seconds()
			tr.end(setupSpan)
			ph.setup = append(ph.setup, d)
			spent += d
		}

		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := tr.startProfile(); err != nil {
			return nil, err
		}
		e0 := fusedcc.GlobalEngineStats()
		runSpan := tr.begin("run", passSpan)
		t1 := time.Now()
		out := p.run(tr, runSpan)
		wall := time.Since(t1).Seconds()
		tr.end(runSpan)
		ph.addEngine(e0)
		if err := tr.stopProfile(); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		refSpan = tr.begin("reference", passSpan)
		ref := (refBefore + hostReference()) / 2
		tr.end(refSpan)
		ph.ref = append(ph.ref, ref)
		fmt.Printf("pass %d: reference %.4fs setup %.4fs run %.4fs traced=%v\n", ph.passes, ref, ph.setup[len(ph.setup)-1], wall, tr != nil)
		ph.wall = append(ph.wall, wall)
		ph.wallRef = append(ph.wallRef, wall/ref)
		ph.allocMB = append(ph.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		ph.gcCycles = append(ph.gcCycles, float64(m1.NumGC-m0.NumGC))
		ph.allocBytes += m1.TotalAlloc - m0.TotalAlloc

		ph.ops += out.ops
		ph.failed += out.failed
		ph.steps += out.steps
		ph.errs = append(ph.errs, out.errs...)
		if ph.first == nil {
			ph.first = &out
			if p.check != nil {
				errs := p.check(out)
				ph.failed += len(errs)
				ph.errs = append(ph.errs, errs...)
			}
		} else if !sameSim(ph.first.sim, out.sim) {
			ph.failed++
			ph.errs = append(ph.errs, fmt.Sprintf("pass %d sim metrics %v differ from pass 0 %v", ph.passes, out.sim, ph.first.sim))
		}
		if tr != nil {
			timePlanners(ph.planner, p.graphs, tr, passSpan)
		}
		tr.end(passSpan)
		ph.passes++
	}
	return ph, nil
}

// addEngine adds the engine counters' growth since before (one measured
// execution) to the phase's totals; the heap high-water mark is the
// process-wide one.
func (ph *phase) addEngine(before fusedcc.EngineStats) {
	now := fusedcc.GlobalEngineStats()
	ph.engine.Dispatched += now.Dispatched - before.Dispatched
	ph.engine.PoolHits += now.PoolHits - before.PoolHits
	ph.engine.DirectHandoffs += now.DirectHandoffs - before.DirectHandoffs
	ph.engine.Windows += now.Windows - before.Windows
	ph.engine.BarrierStalls += now.BarrierStalls - before.BarrierStalls
	ph.engine.MaxHeapDepth = now.MaxHeapDepth
}

func sameSim(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// writeArtifacts saves the traced run's spans, span self times and
// per-layer values, and each traced pass's CPU profile, under dir.
func writeArtifacts(dir, base string, tr *tracer, values map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Host  map[string]any     `json:"host"`
		Spans []span             `json:"spans"`
		Self  []selfTime         `json:"self_ms"`
		Layer map[string]float64 `json:"per_layer"`
	}{
		Host: map[string]any{
			"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		},
		Spans: tr.spans,
		Self:  tr.selfTimes(),
		Layer: values,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".trace.json"), data, 0o644); err != nil {
		return err
	}
	for i, prof := range tr.profiles {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s.pass%d.cpu.pprof", base, i)), prof, 0o644); err != nil {
			return err
		}
	}
	return nil
}
