package main

import (
	"fmt"
	"math"
	"sort"

	"fusedcc"
	"fusedcc/internal/dlrm"
	"fusedcc/internal/gpu"
	"fusedcc/internal/graph"
	"fusedcc/internal/moe"
	"fusedcc/internal/netsim"
	"fusedcc/internal/transformer"
)

// offlineChunks is the pipeline depth K of the Pipelined and Wavefront
// modes (Auto picks its own per pair).
const offlineChunks = 2

// offlineModes are the five execution modes, eager first: the
// baseline the others are compared against.
var offlineModes = []fusedcc.ExecMode{fusedcc.Eager, fusedcc.Pipelined, fusedcc.Compiled, fusedcc.Wavefront, fusedcc.Auto}

// stepper is the slice of a case-study stack the benchmark drives.
type stepper interface {
	StepReport(p *fusedcc.Proc, mode fusedcc.ExecMode) *fusedcc.GraphReport
	Executor() *fusedcc.GraphExecutor
}

// stackCase builds one L=2 case-study stack on a system.
type stackCase struct {
	name  string
	build func(sys *fusedcc.System) (stepper, *fusedcc.Graph, error)
}

// offlineStacks are the three case-study stacks at benchmark size
// (timing mode). Sizes keep one step of each stack to a few tens of
// thousands of engine events, so a pass of all fifteen (stack, mode)
// steps takes about a second of host time. seed fills the operands.
func offlineStacks(seed int64) []stackCase {
	return []stackCase{
		{"decoder", func(sys *fusedcc.System) (stepper, *fusedcc.Graph, error) {
			d, err := sys.NewTransformerDecoder(transformer.DecoderConfig{
				Layers: 2, Hidden: 2048, FFN: 8192, TileM: 32, Seed: seed,
			}, fusedcc.DefaultOperatorConfig())
			if err != nil {
				return nil, nil, err
			}
			return d, d.Graph(), nil
		}},
		{"dlrm", func(sys *fusedcc.System) (stepper, *fusedcc.Graph, error) {
			m, err := sys.NewDLRM(offlineDLRMConfig(seed), fusedcc.DefaultOperatorConfig())
			if err != nil {
				return nil, nil, err
			}
			return m, m.ForwardGraph(), nil
		}},
		{"moe", func(sys *fusedcc.System) (stepper, *fusedcc.Graph, error) {
			s, err := sys.NewMoEStack(moe.Config{
				TokensPerGPU: 64, ModelDim: 512, FFNDim: 1024, TopK: 2, TileM: 16, TileN: 64, Seed: seed,
			}, 2, fusedcc.DefaultOperatorConfig())
			if err != nil {
				return nil, nil, err
			}
			return s, s.Graph(), nil
		}},
	}
}

// offlineDLRMConfig is the offline DLRM: two embedding groups (L=2),
// coarsened (RowsPerWG) so one step stays cheap on the host.
func offlineDLRMConfig(seed int64) dlrm.Config {
	return dlrm.Config{
		TablesPerGPU: 2, TableRows: 1 << 14, EmbeddingDim: 256,
		GlobalBatch: 256, AvgPooling: 32,
		BottomMLP: []int{256, 512, 256}, TopMLP: []int{512, 512, 256, 1},
		SliceRows: 32, RowsPerWG: 32, Groups: 2, Seed: seed,
	}
}

// servingDLRMConfig is the inference DLRM the serving workloads step per
// batch: one embedding group and slim MLPs, so the embedding pooling and
// its All-to-All (the fused pair) carry the step and a thousand
// requests stay within a few host seconds.
func servingDLRMConfig(seed int64) dlrm.Config {
	cfg := offlineDLRMConfig(seed)
	cfg.Groups = 1
	cfg.BottomMLP, cfg.TopMLP = []int{256, 256}, []int{256, 1}
	return cfg
}

// offlineJob is one (stack, mode) step on its own fresh world with a
// cold plan cache.
type offlineJob struct {
	stack string
	mode  fusedcc.ExecMode
	sys   *fusedcc.System
	r     stepper
	cache *graph.PassCache
}

// prepareOffline builds the fifteen fresh worlds and stacks of one
// offline-2x4 pass.
func prepareOffline(seed int64, _ *tracer, _ int) (*prepared, error) {
	var jobs []offlineJob
	var graphs []*fusedcc.Graph
	for _, sc := range offlineStacks(seed) {
		for mi, mode := range offlineModes {
			sys, err := fusedcc.NewCluster(2, 4, fusedcc.Options{})
			if err != nil {
				return nil, err
			}
			r, g, err := sc.build(sys)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sc.name, err)
			}
			if mi == 0 {
				graphs = append(graphs, g)
			}
			cache := graph.NewPassCache()
			x := r.Executor()
			x.Streams = true
			x.Chunks = offlineChunks
			x.Cache = cache
			jobs = append(jobs, offlineJob{sc.name, mode, sys, r, cache})
		}
	}
	return &prepared{
		run:    func(tr *tracer, parent int) passResult { return runOffline(jobs, tr, parent) },
		graphs: graphs,
	}, nil
}

// runOffline executes every job once and derives the pass's simulated
// metrics and per-layer counters from the executor reports.
func runOffline(jobs []offlineJob, tr *tracer, parent int) passResult {
	reps := make([]*fusedcc.GraphReport, len(jobs))
	for i, j := range jobs {
		sp := tr.begin(fmt.Sprintf("step:%s/%v", j.stack, j.mode), parent)
		j.sys.Run(func(p *fusedcc.Proc) { reps[i] = j.r.StepReport(p, j.mode) })
		tr.end(sp)
	}

	out := passResult{ops: len(jobs), steps: len(jobs), layer: map[string]float64{}}
	var (
		durs                       []float64
		fusedLog, autoLog, simSum  float64
		planErr, regret, overlap   float64
		nStacks                    float64
		busyComp, busyComm, busyTo float64
		hbm, hbmN, nicBytes        float64
		nicUtil, nicN              float64
		hits, misses               int64
	)
	byStack := map[string]map[fusedcc.ExecMode]*fusedcc.GraphReport{}
	for i, j := range jobs {
		rep := reps[i]
		if rep == nil || rep.Duration() <= 0 {
			out.failed++
			out.errs = append(out.errs, fmt.Sprintf("%s/%v: empty step report", j.stack, j.mode))
			continue
		}
		if byStack[j.stack] == nil {
			byStack[j.stack] = map[fusedcc.ExecMode]*fusedcc.GraphReport{}
		}
		byStack[j.stack][j.mode] = rep
		us := rep.Duration().Seconds() * 1e6
		durs = append(durs, us)
		simSum += rep.Duration().Seconds()
		addNodeCounters(out.layer, rep)
		for _, s := range rep.Streams {
			busyComp += s.ComputeBusy.Seconds()
			busyComm += s.CommBusy.Seconds()
		}
		busyTo += rep.Duration().Seconds() * float64(len(rep.Streams))
		for _, dev := range j.sys.Platform.Devices() {
			hbm += dev.HBM().Utilization()
			hbmN++
		}
		b, u, n := networkCounters(j.sys.Platform.Network())
		nicBytes += b
		nicUtil += u
		nicN += n
		h, m := j.cache.Stats()
		hits += h
		misses += m
	}
	for _, sc := range []string{"decoder", "dlrm", "moe"} {
		reps := byStack[sc]
		fused, auto := reps[fusedcc.Compiled], reps[fusedcc.Auto]
		if fused == nil || auto == nil {
			continue
		}
		nStacks++
		fusedLog += math.Log(fused.Duration().Seconds() * 1e6)
		autoLog += math.Log(auto.Duration().Seconds() * 1e6)
		sim := auto.Duration().Seconds()
		if auto.Select != nil {
			planErr += 100 * math.Abs(auto.Select.PredictedTotal().Seconds()-sim) / sim
		}
		best := math.Inf(1)
		for _, m := range offlineModes[:4] {
			if r := reps[m]; r != nil && r.Duration().Seconds() < best {
				best = r.Duration().Seconds()
			}
		}
		regret += 100 * (sim/best - 1)
		overlap += auto.OverlapEfficiency()
	}
	if nStacks > 0 {
		out.layer["graph.plan_error_pct"] = planErr / nStacks
		out.layer["graph.auto_regret_pct"] = regret / nStacks
		out.layer["graph.overlap_eff"] = overlap / nStacks
	}
	if busyTo > 0 {
		out.layer["gpu.compute_busy_share"] = busyComp / busyTo
		out.layer["gpu.comm_busy_share"] = busyComm / busyTo
	}
	if hbmN > 0 {
		out.layer["gpu.hbm_util"] = hbm / hbmN
	}
	out.layer["netsim.nic_mb"] = nicBytes / 1e6
	if nicN > 0 {
		out.layer["netsim.nic_util"] = nicUtil / nicN
	}
	out.layer["graph.cache_hits"] = float64(hits)
	out.layer["graph.cache_misses"] = float64(misses)
	out.sim = map[string]float64{
		"sim_fused_us":    math.Exp(fusedLog / nStacks),
		"sim_auto_us":     math.Exp(autoLog / nStacks),
		"sim_p50_us":      percentile(durs, 50),
		"sim_p99_us":      percentile(durs, 99),
		"sim_goodput_rps": float64(len(durs)) / simSum,
	}
	out.layer["sim.samples"] = float64(len(durs))
	return out
}

// addNodeCounters folds one executor report's per-node simulated time
// (by node kind) and remote traffic into layer.
func addNodeCounters(layer map[string]float64, rep *fusedcc.GraphReport) {
	for _, n := range rep.Nodes {
		layer["graph.node_us."+n.Kind.String()] += n.Duration().Seconds() * 1e6
	}
	layer["shmem.remote_puts"] += float64(rep.RemotePuts())
	layer["shmem.remote_mb"] += rep.RemoteBytes() / 1e6
}

// networkCounters sums a platform network's link traffic and reports
// the summed link utilization with the link count.
func networkCounters(net netsim.Network) (bytes, util, links float64) {
	enum, ok := net.(netsim.LinkEnumerator)
	if !ok {
		return 0, 0, 0
	}
	for _, l := range enum.Links() {
		bytes += l.Res.TotalBytes()
		util += l.Res.Utilization()
		links++
	}
	return bytes, util, links
}

// streamShares reads a world's cumulative per-device stream busy time
// as shares of span (the serving loop's makespan).
func streamShares(devs []*gpu.Device, span float64) (comp, comm float64) {
	if span <= 0 || len(devs) == 0 {
		return 0, 0
	}
	for _, d := range devs {
		comp += d.StreamBusy(gpu.StreamCompute).Seconds()
		comm += d.StreamBusy(gpu.StreamComm).Seconds()
	}
	n := span * float64(len(devs))
	return comp / n, comm / n
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(len(s)) * p / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}
