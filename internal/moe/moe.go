// Package moe implements the paper's third case study (§II-A, Fig 4):
// a Mixture-of-Experts layer under expert parallelism. Each PE hosts one
// expert; tokens are routed top-2, dispatched with an All-to-All, run
// through the expert feed-forward network, and returned with the combine
// All-to-All.
//
// The layer is expressed as a computation graph: gate → dispatch
// All-to-All → first expert GEMM + activation → MatMul → combine
// All-to-All. In compiled mode the fusion pass rewrites the trailing
// MatMul → AllToAll pair to the fused Triton-built GEMM + All-to-All
// operator; the dispatch stays a library collective on both paths (the
// paper fuses only the combine side).
package moe

import (
	"fmt"

	"fusedcc/internal/core"
	"fusedcc/internal/gpu"
	"fusedcc/internal/graph"
	"fusedcc/internal/kernels"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
	"fusedcc/internal/workload"
)

// Config sizes one MoE layer. The paper assumes top-2 routing with a
// uniform token distribution across experts (§II-A).
type Config struct {
	// TokensPerGPU is the tokens entering the layer on each PE.
	TokensPerGPU int
	// ModelDim is the token embedding width.
	ModelDim int
	// FFNDim is the expert's inner feed-forward width.
	FFNDim int
	// TopK is the routed expert count per token (2 in the paper).
	TopK int
	// TileM and TileN tile the expert GEMMs (TileM must divide the
	// per-source row block).
	TileM, TileN int
	Seed         int64
}

// DefaultConfig returns a small representative layer.
func DefaultConfig() Config {
	return Config{TokensPerGPU: 512, ModelDim: 1024, FFNDim: 4096, TopK: 2, TileM: 32, TileN: 128, Seed: 1}
}

// Layer is one expert-parallel MoE layer over the PEs of a world.
type Layer struct {
	World *shmem.World
	PEs   []int
	Cfg   Config

	// expertRows is the tokens each expert processes per layer pass:
	// TopK * TokensPerGPU under the uniform assumption.
	expertRows int
	tokensOut  *shmem.Symm // dispatch staging: routed tokens leaving each rank
	tokensIn   *shmem.Symm // dispatch staging: expert input tokens
	gemm1      []*kernels.GEMM
	// Op pairs the second expert GEMM with the combine All-to-All.
	Op *core.GEMMAllToAll

	g    *graph.Graph
	exec graph.Executor
}

// newLayer validates the shape and builds one layer's weights, routing
// state, and pair operator — without graph nodes, so single layers and
// stacks share one construction path.
func newLayer(w *shmem.World, pes []int, cfg Config, opCfg core.Config, seed int64) (*Layer, error) {
	k := len(pes)
	if k == 0 {
		return nil, fmt.Errorf("moe: no PEs")
	}
	if cfg.TopK < 1 || cfg.TopK > k {
		return nil, fmt.Errorf("moe: TopK %d with %d experts", cfg.TopK, k)
	}
	rows := cfg.TopK * cfg.TokensPerGPU
	if rows%k != 0 {
		return nil, fmt.Errorf("moe: expert rows %d not divisible by %d PEs", rows, k)
	}
	l := &Layer{World: w, PEs: pes, Cfg: cfg, expertRows: rows}
	pl := w.Platform()
	l.tokensOut = w.Malloc(rows * cfg.ModelDim)
	l.tokensIn = w.Malloc(rows * cfg.ModelDim)
	gemm2 := make([]*kernels.GEMM, k)
	for s, pe := range pes {
		rng := workload.Rand(seed + int64(s))
		dev := pl.Device(pe)
		g1 := &kernels.GEMM{M: rows, N: cfg.FFNDim, K: cfg.ModelDim,
			TileM: cfg.TileM, TileN: cfg.TileN,
			A: l.tokensIn.On(pe), B: dev.Alloc(cfg.ModelDim * cfg.FFNDim), C: dev.Alloc(rows * cfg.FFNDim)}
		workload.FillRandom(rng, g1.B)
		l.gemm1 = append(l.gemm1, g1)
		g2 := &kernels.GEMM{M: rows, N: cfg.ModelDim, K: cfg.FFNDim,
			TileM: cfg.TileM, TileN: min(cfg.TileN, cfg.ModelDim),
			A: g1.C, B: dev.Alloc(cfg.FFNDim * cfg.ModelDim)}
		workload.FillRandom(rng, g2.B)
		gemm2[s] = g2
	}
	op, err := core.NewGEMMAllToAll(w, pes, gemm2, opCfg)
	if err != nil {
		return nil, err
	}
	l.Op = op
	return l, nil
}

// estimateGEMMTiles prices one stock tiled GEMM launch of tilesM x
// tilesN tiles over m x n output elements (reduced dimension kd) with
// the same roofline the operator estimators use — the analytic cost the
// rowwise nodes hand the select pass so it can price wavefront
// schedules through them.
func estimateGEMMTiles(cfg gpu.Config, tilesM, tilesN, m, n, kd int) sim.Duration {
	if tilesM <= 0 || tilesN <= 0 {
		return 0
	}
	tm := float64(m) / float64(tilesM)
	tn := float64(n) / float64(tilesN)
	ke := core.KernelEstimate{
		Grid:  tilesM * tilesN,
		Read:  (tm + tn) * float64(kd) * 4,
		Write: tm * tn * 4,
		Flops: 2 * tm * tn * float64(kd),
	}
	return cfg.KernelLaunchOverhead + ke.Time(cfg)
}

// estimateGEMM is estimateGEMMTiles for a contiguous m x n output
// tiled at tileM x tileN.
func estimateGEMM(cfg gpu.Config, m, n, kd, tileM, tileN int) sim.Duration {
	if m <= 0 || n <= 0 {
		return 0
	}
	if tileM > m {
		tileM = m
	}
	if tileN > n {
		tileN = n
	}
	return estimateGEMMTiles(cfg, (m+tileM-1)/tileM, (n+tileN-1)/tileN, m, n, kd)
}

// estimateElementwise prices one ReLUStrided launch over n elements,
// sized by the kernel's own grid rule so the estimate cannot diverge
// from the simulated launch (pricing the plain ReLU's fixed 64Ki-per-WG
// grain here would overcharge small chunked activations by the device's
// parallelism factor).
func estimateElementwise(cfg gpu.Config, n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	grid := kernels.ElementwiseGrid(cfg.MaxWGSlots(), n)
	per := float64(n) / float64(grid)
	ke := core.KernelEstimate{Grid: grid, Read: per * 4, Write: per * 4, Flops: per}
	return cfg.KernelLaunchOverhead + ke.Time(cfg)
}

// addTo appends the layer's nodes — gate, dispatch All-to-All, first
// expert GEMM + activation, and the MatMul → combine All-to-All pair —
// to g and returns the combine-output value.
//
// The gate, dispatch, and first expert stage are declared *rowwise*
// over the token dimension: under the paper's uniform top-K routing
// assumption, token band [lo,hi) flows order-preservingly through the
// whole layer — gate rows [lo,hi) stage only those tokens's routed
// copies, the dispatch moves the matching per-block row band, the
// expert FFN rows of that band read only those dispatched rows, and the
// combine returns them. That is exactly the contract the wavefront
// partition needs to chain layer l+1's chunk c behind layer l's chunk c
// instead of behind the whole layer-l combine.
func (l *Layer) addTo(g *graph.Graph, prefix string, deps ...graph.Value) (graph.Value, error) {
	pl := l.World.Platform()
	cfg := l.Cfg
	k := len(l.PEs)
	rows := l.expertRows
	perBlock := rows / k
	cfg0 := pl.Device(l.PEs[0]).Config()
	gate := g.PerRankRows(prefix+"gate", graph.RowsSpec{
		Kind: core.RangeRows, Units: cfg.TokensPerGPU,
		Run: func(p *sim.Proc, rank, pe, lo, hi int) {
			// Gating router: tiny GEMM (tokens x experts) staging the
			// routed tokens for dispatch.
			dev := pl.Device(pe)
			gt := &kernels.GEMM{M: hi - lo, N: k, K: cfg.ModelDim, TileM: min(32, hi-lo), TileN: k}
			gt.Run(p, dev, 0)
		},
		Estimate: func(lo, hi int) sim.Duration {
			return estimateGEMM(cfg0, hi-lo, k, cfg.ModelDim, 32, k)
		},
	}, deps...)
	disp := g.AllToAllSymmRows(prefix+"dispatch", l.tokensOut, l.tokensIn, perBlock, cfg.ModelDim, gate)
	ffn1 := g.PerRankRows(prefix+"expert_ffn1+act", graph.RowsSpec{
		Kind: core.RangeRows, Units: perBlock,
		Run: func(p *sim.Proc, rank, pe, lo, hi int) {
			// One GEMM launch over the tiles whose rows fall in band
			// [lo,hi) of every source block (the band the dispatch chunk
			// just delivered), then one strided activation launch over
			// exactly those rows. The whole node (lo=0, hi=perBlock) runs
			// the same body, so chunked and unchunked executions price
			// the identical work identically.
			dev := pl.Device(pe)
			g1 := l.gemm1[rank]
			type rect struct{ mlo, mhi, nlo, nhi int }
			var rects []rect
			for d := 0; d < k; d++ {
				for r := lo; r < hi; r += g1.TileM {
					rhi := min(r+g1.TileM, hi)
					for t := 0; t < g1.TilesN(); t++ {
						nlo := t * g1.TileN
						rects = append(rects, rect{d*perBlock + r, d*perBlock + rhi, nlo, min(nlo+g1.TileN, g1.N)})
					}
				}
			}
			dev.LaunchGrid(p, "gemm", len(rects), 0, func(w *gpu.WG, i int) {
				rc := rects[i]
				g1.ComputeRect(w, rc.mlo, rc.mhi, rc.nlo, rc.nhi, g1.C)
			})
			kernels.ReLUStrided(p, dev, g1.C, perBlock*cfg.FFNDim, lo*cfg.FFNDim, (hi-lo)*cfg.FFNDim, k)
		},
		Estimate: func(lo, hi int) sim.Duration {
			if hi <= lo {
				return 0
			}
			// Per-block banded tiling, mirroring Run: each of the k
			// blocks re-tiles from its own lo, so a non-TileM-aligned
			// span costs k ragged bands, not a globally packed grid.
			bands := (hi - lo + cfg.TileM - 1) / cfg.TileM
			tilesN := (cfg.FFNDim + cfg.TileN - 1) / cfg.TileN
			return estimateGEMMTiles(cfg0, k*bands, tilesN, k*(hi-lo), cfg.FFNDim, cfg.ModelDim) +
				estimateElementwise(cfg0, k*(hi-lo)*cfg.FFNDim)
		},
	}, disp)
	mm := g.MatMul(prefix+"expert_ffn2", l.Op, ffn1)
	return g.AllToAll(prefix+"combine", mm)
}

// New validates the shape, builds weights and routing state, and
// assembles the layer's computation graph.
func New(w *shmem.World, pes []int, cfg Config, opCfg core.Config) (*Layer, error) {
	l, err := newLayer(w, pes, cfg, opCfg, cfg.Seed)
	if err != nil {
		return nil, err
	}
	g := graph.New(w, pes, opCfg)
	if _, err := l.addTo(g, ""); err != nil {
		return nil, err
	}
	l.g = g
	return l, nil
}

// Stack is L chained expert-parallel MoE layers built as ONE
// computation graph: layer l's gate consumes layer l-1's combine
// output, so a whole block of alternating dense/MoE depth runs under a
// single executor — and the pipelined mode overlaps one layer's
// chunked combine with its remaining expert GEMM tiles while the next
// layer's dispatch rides the comm stream.
type Stack struct {
	World *shmem.World
	PEs   []int
	Cfg   Config

	// Layers holds the per-layer operators (Layers[l].Op.Recv is layer
	// l's combine output).
	Layers []*Layer

	g    *graph.Graph
	exec graph.Executor
}

// NewStack builds a stack of layers MoE layers as a single graph.
func NewStack(w *shmem.World, pes []int, cfg Config, layers int, opCfg core.Config) (*Stack, error) {
	if layers <= 0 {
		return nil, fmt.Errorf("moe: stack needs layers >= 1, got %d", layers)
	}
	st := &Stack{World: w, PEs: pes, Cfg: cfg}
	for i := 0; i < layers; i++ {
		l, err := newLayer(w, pes, cfg, opCfg, cfg.Seed+int64(1000*i))
		if err != nil {
			return nil, err
		}
		st.Layers = append(st.Layers, l)
	}
	g := graph.New(w, pes, opCfg)
	if _, err := graph.Stack(g, layers, func(i int, prev graph.Value) (graph.Value, error) {
		return st.Layers[i].addTo(g, fmt.Sprintf("l%d.", i), prev)
	}); err != nil {
		return nil, err
	}
	st.g = g
	return st, nil
}

// Graph returns the stack's computation graph.
func (st *Stack) Graph() *graph.Graph { return st.g }

// Executor returns the stack's executor, for tuning pipeline depth
// (Chunks) or forcing stream-aware scheduling.
func (st *Stack) Executor() *graph.Executor { return &st.exec }

// Step runs one pass over the whole stack in the given execution mode.
func (st *Stack) Step(p *sim.Proc, mode graph.Mode) core.Report {
	return st.exec.Execute(p, st.g, mode).Summary(len(st.PEs))
}

// StepReport runs one pass and returns the full per-node graph report.
func (st *Stack) StepReport(p *sim.Proc, mode graph.Mode) *graph.Report {
	return st.exec.Execute(p, st.g, mode)
}

// Graph returns the layer's computation graph (eager form; Compile
// produces the fused form).
func (l *Layer) Graph() *graph.Graph { return l.g }

// Combined returns the combine output: on each PE, [k][expertRows/k]
// rows of ModelDim — the TopK partial outputs of the PE's own tokens,
// ready for the weighted combine.
func (l *Layer) Combined() *shmem.Symm { return l.Op.Recv }

// Forward runs one layer pass through the graph executor. fused selects
// compiled mode, where the fusion pass substitutes the fused
// GEMM + combine All-to-All; the gate, dispatch All-to-All, first GEMM,
// and activation are common to both paths.
func (l *Layer) Forward(p *sim.Proc, fused bool) core.Report {
	mode := graph.Eager
	if fused {
		mode = graph.Compiled
	}
	return l.Step(p, mode)
}

// Step runs one layer pass in any execution mode (Eager, Compiled, or
// Pipelined).
func (l *Layer) Step(p *sim.Proc, mode graph.Mode) core.Report {
	return l.exec.Execute(p, l.g, mode).Summary(len(l.PEs))
}

// Executor returns the layer's executor, for tuning pipeline depth.
func (l *Layer) Executor() *graph.Executor { return &l.exec }
