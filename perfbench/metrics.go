package main

import (
	"runtime"
	"time"

	"fusedcc"
)

// metricDef names one printed metric and its unit. The lists below are
// the benchmark's contract with BENCHMARK.json (metrics_test.go keeps
// the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd are printed by untraced runs (--trace 0).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
	{"sim_fused_us", "sim_us"},
	{"sim_auto_us", "sim_us"},
	{"sim_p50_us", "sim_us"},
	{"sim_p99_us", "sim_us"},
	{"sim_goodput_rps", "1/sim_s"},
}

// perLayer are printed by traced runs (--trace 1). A layer a workload
// does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.pool_hits", "count"},
		{"sim.direct_handoffs", "count"},
		{"sim.max_heap_depth", "count"},
		{"sim.windows", "count"},
		{"sim.barrier_stalls", "count"},
		{"sim.samples", "count"},
		{"gpu.compute_busy_share", "ratio"},
		{"gpu.comm_busy_share", "ratio"},
		{"gpu.hbm_util", "ratio"},
		{"shmem.remote_puts", "count"},
		{"shmem.remote_mb", "MB"},
		{"graph.node_us.compute", "sim_us"},
		{"graph.node_us.collective", "sim_us"},
		{"graph.node_us.fused", "sim_us"},
		{"netsim.nic_mb", "MB"},
		{"netsim.nic_util", "ratio"},
		{"graph.select_ms", "ms"},
		{"graph.partition_ms", "ms"},
		{"graph.wavefront_ms", "ms"},
		{"graph.compile_ms", "ms"},
		{"graph.plan_error_pct", "%"},
		{"graph.auto_regret_pct", "%"},
		{"graph.overlap_eff", "ratio"},
		{"graph.cache_hits", "count"},
		{"graph.cache_misses", "count"},
		{"graph.step_host_ms", "ms"},
		{"serve.batches", "count"},
		{"serve.mean_batch", "count"},
		{"serve.wait_p99_us", "sim_us"},
		{"serve.service_p99_us", "sim_us"},
		{"serve.mean_depth", "count"},
		{"serve.max_depth", "count"},
		{"serve.retries", "count"},
		{"serve.drops", "count"},
		{"chaos.faults_fired", "count"},
		{"chaos.reselects", "count"},
		{"chaos.rebuilds", "count"},
		{"chaos.max_degrade_comm", "ratio"},
		{"astra.baseline_iter_us", "sim_us"},
		{"astra.iter_host_s", "s"},
		{"astra.shards", "count"},
		{"go.gc_cycles", "count"},
		{"go.alloc_per_event", "B"},
		{"trace.overhead_pct", "%"},
		{"trace.spans", "count"},
		{"trace.sim_equal", "count"},
		{"host.num_cpu", "count"},
		{"host.gomaxprocs", "count"},
		{"host.profile_s", "s"},
		{"host.wall_raw_s", "s"},
		{"host.setup_raw_s", "s"},
		{"host.reference_s", "s"},
	}
	for _, l := range hostLayers {
		defs = append(defs, metricDef{"host." + l + "_s", "s"})
	}
	return defs
}()

// layerValues fills the per-layer metrics: counters from the untraced
// passes (they repeat exactly), host self time per layer from the CPU
// profiles of the traced passes' measured runs, and the tracing
// overhead as the traced median pass over the untraced one.
func layerValues(v map[string]float64, plain, traced *phase, samples []sample) {
	for k, x := range plain.first.layer {
		v[k] = x
	}
	passes := float64(plain.passes)
	e := plain.engine
	v["sim.events"] = float64(e.Dispatched) / passes
	v["sim.pool_hits"] = float64(e.PoolHits) / passes
	v["sim.direct_handoffs"] = float64(e.DirectHandoffs) / passes
	v["sim.max_heap_depth"] = float64(e.MaxHeapDepth)
	v["sim.windows"] = float64(e.Windows) / passes
	v["sim.barrier_stalls"] = float64(e.BarrierStalls) / passes
	wall := median(plain.wall)
	if e.Dispatched > 0 {
		v["sim.ns_per_event"] = wall * 1e9 / (float64(e.Dispatched) / passes)
		v["go.alloc_per_event"] = float64(plain.allocBytes) / float64(e.Dispatched)
	}
	if plain.steps > 0 {
		v["graph.step_host_ms"] = wall * 1e3 / (float64(plain.steps) / passes)
	}
	v["go.gc_cycles"] = median(plain.gcCycles)
	if r := median(plain.wallRef); r > 0 {
		v["trace.overhead_pct"] = 100 * (median(traced.wallRef)/r - 1)
	}
	for _, pp := range plannerPasses {
		v[pp.metric] = median(traced.planner[pp.metric])
	}
	secs := layerSeconds(samples)
	total := 0.0
	for _, layer := range hostLayers {
		v["host."+layer+"_s"] = secs[layer] / float64(traced.passes)
		total += secs[layer]
	}
	v["host.profile_s"] = total / float64(traced.passes)
	v["host.wall_raw_s"] = wall
	v["host.setup_raw_s"] = median(plain.setup)
	v["host.reference_s"] = median(plain.ref)
	v["host.num_cpu"] = float64(runtime.NumCPU())
	v["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
}

// plannerPasses are the planner entry points the traced run times with
// direct cold calls (no plan cache) on the workload's stack graphs.
var plannerPasses = []struct {
	metric string
	run    func(g *fusedcc.Graph)
}{
	{"graph.select_ms", func(g *fusedcc.Graph) { fusedcc.Select(g) }},
	{"graph.partition_ms", func(g *fusedcc.Graph) { fusedcc.Partition(g, offlineChunks) }},
	{"graph.wavefront_ms", func(g *fusedcc.Graph) { fusedcc.PartitionWavefront(g, offlineChunks) }},
	{"graph.compile_ms", func(g *fusedcc.Graph) { fusedcc.Compile(g, fusedcc.CompileOptions{}) }},
}

// timePlanners times each planner pass over graphs once, in a child span
// of parent, and appends the summed milliseconds to into.
//
//detlint:allow wallclock -- host time of the planner passes
func timePlanners(into map[string][]float64, graphs []*fusedcc.Graph, tr *tracer, parent int) {
	if len(graphs) == 0 {
		return
	}
	for _, pp := range plannerPasses {
		sp := tr.begin(pp.metric, parent)
		t0 := time.Now()
		for _, g := range graphs {
			pp.run(g)
		}
		into[pp.metric] = append(into[pp.metric], float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end(sp)
	}
}
