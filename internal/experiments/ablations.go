package experiments

import (
	"fmt"

	"fusedcc/internal/core"
	"fusedcc/internal/sim"
)

// AblationZeroCopy isolates the zero-copy optimization (§III-B): the
// scale-up fused embedding + All-to-All with direct peer stores versus
// the same fused kernel forced through staging buffers and DMA copies.
func AblationZeroCopy(opt Options) *Result {
	c := embConfig{2048, 128}
	if opt.Quick {
		c = embConfig{512, 64}
	}
	run := func(disable bool) sim.Duration {
		pl, w := scaleUpWorld(4)
		pes := allPEs(pl)
		sets := timingEmbeddingSets(pl, pes, c.tables, embDim, c.batch, embPooling)
		cfg := core.DefaultConfig()
		cfg.DisableZeroCopy = disable
		op, err := core.NewEmbeddingAllToAll(w, pes, sets, c.batch, embSlice, cfg)
		if err != nil {
			panic(err)
		}
		op.RowsPerWG = embSlice
		return runReport(pl, op.RunFused).Duration()
	}
	staged := run(true)
	zero := run(false)
	res := &Result{ID: "AblZeroCopy", Title: "zero-copy stores vs staged DMA puts (fused, intra-node)"}
	res.Rows = append(res.Rows, Row{Label: c.label(), Baseline: staged, Fused: zero})
	res.Notes = append(res.Notes, fmt.Sprintf("zero-copy saves %.1f%% over staged fused communication", 100*res.MeanReduction()))
	return res
}

// AblationSliceSize sweeps the communication granularity of the fused
// inter-node kernel: tiny slices amortize API overhead poorly, huge
// slices delay communication — §IV-A picks 32 embeddings.
func AblationSliceSize(opt Options) *Result {
	c := embConfig{1024, 128}
	slices := []int{8, 16, 32, 64, 128}
	if opt.Quick {
		c = embConfig{512, 64}
		slices = []int{8, 64}
	}
	res := &Result{ID: "AblSliceSize", Title: "fused embedding + All-to-All slice-size sweep (inter-node)"}
	var base sim.Duration
	for i, sl := range slices {
		pl, w := scaleOutWorld(2)
		pes := allPEs(pl)
		sets := timingEmbeddingSets(pl, pes, c.tables, embDim, c.batch, embPooling)
		op, err := core.NewEmbeddingAllToAll(w, pes, sets, c.batch, sl, core.DefaultConfig())
		if err != nil {
			panic(err)
		}
		op.RowsPerWG = min(sl, 8)
		d := runReport(pl, op.RunFused).Duration()
		if i == 0 {
			base = d
		}
		res.Rows = append(res.Rows, Row{Label: fmt.Sprintf("slice=%d", sl), Baseline: base, Fused: d})
	}
	return res
}

// AblationOccupancyPenalty quantifies the cost of the fused kernel's
// register pressure: the default 7/8 occupancy versus a hypothetical
// networking API that is register-free (8/8).
func AblationOccupancyPenalty(opt Options) *Result {
	c := embConfig{1024, 256}
	if opt.Quick {
		c = embConfig{512, 64}
	}
	run := func(wgsPerCU int) sim.Duration {
		pl, w := scaleOutWorld(2)
		pes := allPEs(pl)
		sets := timingEmbeddingSets(pl, pes, c.tables, embDim, c.batch, embPooling)
		cfg := core.DefaultConfig()
		cfg.WGsPerCU = wgsPerCU
		op, err := core.NewEmbeddingAllToAll(w, pes, sets, c.batch, embSlice, cfg)
		if err != nil {
			panic(err)
		}
		op.RowsPerWG = embSlice
		return runReport(pl, op.RunFused).Duration()
	}
	full := run(8)
	reduced := run(7)
	res := &Result{ID: "AblOccupancy", Title: "fused-kernel occupancy penalty (8/8 vs 7/8 WG slots)"}
	res.Rows = append(res.Rows, Row{Label: c.label(), Baseline: full, Fused: reduced})
	res.Notes = append(res.Notes, fmt.Sprintf(
		"12.5%% lower occupancy changes execution time by %+.1f%% (paper §IV-C: no degradation — the kernel sits past the bandwidth saturation point)",
		100*(float64(reduced)/float64(full)-1)))
	return res
}

// AblationKernelSplit compares intra-kernel fusion against the
// kernel-decomposition alternative of Wang et al. [58]: the batch split
// into shards whose communication overlaps the next shard's compute on
// a second stream, paying launch overhead per shard (§IV-A's "16384
// additional kernel launches" argument, at feasible scale).
func AblationKernelSplit(opt Options) *Result {
	c := embConfig{1024, 128}
	shardCounts := []int{2, 4, 8, 16}
	if opt.Quick {
		c = embConfig{512, 64}
		shardCounts = []int{2, 8}
	}
	fusedTime := func() sim.Duration {
		pl, w := scaleOutWorld(2)
		pes := allPEs(pl)
		sets := timingEmbeddingSets(pl, pes, c.tables, embDim, c.batch, embPooling)
		op, err := core.NewEmbeddingAllToAll(w, pes, sets, c.batch, embSlice, core.DefaultConfig())
		if err != nil {
			panic(err)
		}
		op.RowsPerWG = embSlice
		return runReport(pl, op.RunFused).Duration()
	}()
	res := &Result{ID: "AblKernelSplit", Title: "intra-kernel fusion vs kernel decomposition [58] (inter-node)"}
	for _, shards := range shardCounts {
		shards := shards
		pl, w := scaleOutWorld(2)
		pes := allPEs(pl)
		sets := timingEmbeddingSets(pl, pes, c.tables, embDim, c.batch, embPooling)
		op, err := core.NewEmbeddingAllToAll(w, pes, sets, c.batch, embSlice, core.DefaultConfig())
		if err != nil {
			panic(err)
		}
		op.RowsPerWG = embSlice
		d := runReport(pl, func(p *sim.Proc) core.Report { return op.RunKernelSplit(p, shards) }).Duration()
		res.Rows = append(res.Rows, Row{Label: fmt.Sprintf("%d shards", shards), Baseline: d, Fused: fusedTime})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("fused kernel %v; decomposition pays per-shard launches and loses slice-granular overlap", fusedTime))
	return res
}
