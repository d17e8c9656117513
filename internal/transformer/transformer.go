// Package transformer implements the paper's second case study (§II-A,
// Fig 3): Megatron-style tensor parallelism over the feed-forward block
// of an autoregressive transformer during the token (decode) phase. The
// first linear layer is column-partitioned (no communication), the
// second is row-partitioned and ends in the AllReduce the fused
// GEMV + AllReduce operator hides.
//
// The block is expressed as a computation graph: a per-rank first
// layer + activation node feeding a GEMV → AllReduce pair. In eager
// mode the pair runs bulk-synchronous; in compiled mode the fusion pass
// (graph.Compile) rewrites the pair to the fused operator — the fused
// path is produced by the compiler, not hand-wired.
package transformer

import (
	"fmt"

	"fusedcc/internal/core"
	"fusedcc/internal/graph"
	"fusedcc/internal/kernels"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
	"fusedcc/internal/workload"
)

// Config sizes one parallel feed-forward block.
type Config struct {
	// Hidden is the model dimension M (the AllReduce payload length).
	Hidden int
	// FFN is the inner dimension (usually 4*Hidden), split across PEs.
	FFN int
	// TileM is the fused operator's output tile height.
	TileM int
	Seed  int64
}

// DefaultConfig returns a small decode-phase block.
func DefaultConfig() Config {
	return Config{Hidden: 4096, FFN: 16384, TileM: 64, Seed: 1}
}

// ParallelFFN is one tensor-parallel feed-forward block instantiated on
// the PEs of a world.
type ParallelFFN struct {
	World *shmem.World
	PEs   []int
	Cfg   Config

	// Per-rank first layer: W0 column shard [FFN/k, Hidden], producing
	// the local activation a_s.
	gemv1 []*kernels.GEMV
	// Second layer paired with AllReduce: W1 row shard [Hidden, FFN/k].
	Op *core.GEMVAllReduce

	g    *graph.Graph
	exec graph.Executor
}

// block holds one FFN block's per-rank kernels and pair operator — the
// construction unit shared by the single-block case study and the
// multi-layer decoder.
type block struct {
	gemv1 []*kernels.GEMV
	op    *core.GEMVAllReduce
}

// newBlock builds one block's weights and pair operator.
func newBlock(w *shmem.World, pes []int, cfg Config, opCfg core.Config, seed int64) (*block, error) {
	k := len(pes)
	if k == 0 || cfg.FFN%k != 0 {
		return nil, fmt.Errorf("transformer: FFN %d not divisible by %d PEs", cfg.FFN, k)
	}
	if cfg.TileM <= 0 || cfg.Hidden%cfg.TileM != 0 {
		return nil, fmt.Errorf("transformer: TileM %d must divide Hidden %d", cfg.TileM, cfg.Hidden)
	}
	pl := w.Platform()
	b := &block{}
	shard := cfg.FFN / k
	gemv2 := make([]*kernels.GEMV, k)
	for s, pe := range pes {
		rng := workload.Rand(seed + int64(s))
		dev := pl.Device(pe)
		g1 := &kernels.GEMV{M: shard, K: cfg.Hidden, TileM: min(cfg.TileM, shard),
			W: dev.Alloc(shard * cfg.Hidden), X: dev.Alloc(cfg.Hidden), Y: dev.Alloc(shard)}
		workload.FillRandom(rng, g1.W)
		workload.FillRandom(rng, g1.X)
		b.gemv1 = append(b.gemv1, g1)
		g2 := &kernels.GEMV{M: cfg.Hidden, K: shard, TileM: cfg.TileM,
			W: dev.Alloc(cfg.Hidden * shard), X: g1.Y}
		workload.FillRandom(rng, g2.W)
		gemv2[s] = g2
	}
	op, err := core.NewGEMVAllReduce(w, pes, gemv2, opCfg)
	if err != nil {
		return nil, err
	}
	b.op = op
	return b, nil
}

// addTo appends the block's nodes — first layer + activation, then the
// GEMV → AllReduce pair — to g and returns the reduced-output value.
func (b *block) addTo(g *graph.Graph, prefix string, deps ...graph.Value) (graph.Value, error) {
	pl := g.World().Platform()
	l1 := g.PerRank(prefix+"ffn1+act", func(p *sim.Proc, rank, pe int) {
		dev := pl.Device(pe)
		g1 := b.gemv1[rank]
		g1.Run(p, dev, 0)
		// Activation on the shard (ReLU stands in for GELU; same
		// element-wise cost).
		kernels.ReLU(p, dev, g1.Y, 0, g1.M)
	}, deps...)
	mv := g.GEMV(prefix+"ffn2", b.op, l1)
	return g.AllReduce(prefix+"allreduce", mv)
}

// New builds weights, the pair operator, and the block's computation
// graph. The decode input vector x is replicated on every rank
// (synthetic, seeded).
func New(w *shmem.World, pes []int, cfg Config, opCfg core.Config) (*ParallelFFN, error) {
	b, err := newBlock(w, pes, cfg, opCfg, cfg.Seed)
	if err != nil {
		return nil, err
	}
	f := &ParallelFFN{World: w, PEs: pes, Cfg: cfg, gemv1: b.gemv1, Op: b.op}
	g := graph.New(w, pes, opCfg)
	if _, err := b.addTo(g, ""); err != nil {
		return nil, err
	}
	f.g = g
	return f, nil
}

// Graph returns the block's computation graph (eager form; Compile
// produces the fused form).
func (f *ParallelFFN) Graph() *graph.Graph { return f.g }

// DecoderConfig sizes an N-layer decoder stack.
type DecoderConfig struct {
	// Layers is the decoder depth.
	Layers int
	// Hidden, FFN, and TileM size every layer's feed-forward block.
	Hidden, FFN, TileM int
	Seed               int64
}

// DefaultDecoderConfig returns a small multi-layer decode-phase stack.
func DefaultDecoderConfig() DecoderConfig {
	return DecoderConfig{Layers: 4, Hidden: 4096, FFN: 16384, TileM: 64, Seed: 1}
}

// Decoder is an N-layer transformer decoder during the token phase,
// built as ONE computation graph: per layer, a tensor-parallel
// self-attention stand-in (per-rank QKV + output projections and the
// attention-output AllReduce) followed by the feed-forward block whose
// GEMV → AllReduce pair the compiler fuses or the partitioner chunks.
// A single graph is what lets the pipelined executor overlap one
// layer's collective chunks with its later compute chunks while the
// attention AllReduce rides the comm stream — the inter-layer overlap
// invisible to single-layer case studies.
//
// The decoder deliberately declares NO rowwise structure: a GEMV output
// tile reads the whole input vector (and the attention stand-in the
// whole hidden state), so no chunk of layer l+1 can honestly start
// before all of layer l's output is reduced. The wavefront partition
// proves exactly that from the operators' chunk-range metadata and
// degenerates to per-pair pipelining here — decode-phase tensor
// parallelism has no cross-layer chunk dependence to exploit, unlike
// the token-banded MoE stack.
type Decoder struct {
	World *shmem.World
	PEs   []int
	Cfg   DecoderConfig

	// Blocks exposes each layer's pair operator (Blocks[l].Out is layer
	// l's reduced FFN output).
	Blocks []*core.GEMVAllReduce

	blocks  []*block
	attnBuf *shmem.Symm
	g       *graph.Graph
	exec    graph.Executor
}

// NewDecoder builds Layers decoder layers as a single graph.
func NewDecoder(w *shmem.World, pes []int, cfg DecoderConfig, opCfg core.Config) (*Decoder, error) {
	if cfg.Layers <= 0 {
		return nil, fmt.Errorf("transformer: decoder needs Layers >= 1, got %d", cfg.Layers)
	}
	d := &Decoder{World: w, PEs: pes, Cfg: cfg}
	blockCfg := Config{Hidden: cfg.Hidden, FFN: cfg.FFN, TileM: cfg.TileM}
	for l := 0; l < cfg.Layers; l++ {
		b, err := newBlock(w, pes, blockCfg, opCfg, cfg.Seed+int64(1000*l))
		if err != nil {
			return nil, err
		}
		d.blocks = append(d.blocks, b)
		d.Blocks = append(d.Blocks, b.op)
	}
	// Attention-output AllReduce payload, shared across layers (the
	// stand-in carries timing, not functional values).
	d.attnBuf = w.Malloc(cfg.Hidden)
	pl := w.Platform()
	k := len(pes)
	shard := cfg.Hidden / k
	if shard == 0 {
		shard = 1
	}
	g := graph.New(w, pes, opCfg)
	if _, err := graph.Stack(g, cfg.Layers, func(l int, prev graph.Value) (graph.Value, error) {
		prefix := fmt.Sprintf("l%d.", l)
		// Self-attention stand-in: per-rank QKV projection over the
		// rank's head shard plus the output projection partials.
		attn := g.PerRank(prefix+"attn", func(p *sim.Proc, rank, pe int) {
			dev := pl.Device(pe)
			qkv := &kernels.GEMV{M: 3 * shard, K: cfg.Hidden, TileM: min(cfg.TileM, 3*shard)}
			qkv.Run(p, dev, 0)
			out := &kernels.GEMV{M: cfg.Hidden, K: shard, TileM: cfg.TileM}
			out.Run(p, dev, 0)
		}, prev)
		attnAR := g.AllReduceSymm(prefix+"attn_allreduce", d.attnBuf, 0, cfg.Hidden, attn)
		return d.blocks[l].addTo(g, prefix, attnAR)
	}); err != nil {
		return nil, err
	}
	d.g = g
	return d, nil
}

// Graph returns the decoder's computation graph.
func (d *Decoder) Graph() *graph.Graph { return d.g }

// Executor returns the decoder's executor, for tuning pipeline depth
// (Chunks) or forcing stream-aware scheduling before Step.
func (d *Decoder) Executor() *graph.Executor { return &d.exec }

// Step runs one token step of the whole stack in the given execution
// mode and condenses the per-node report.
func (d *Decoder) Step(p *sim.Proc, mode graph.Mode) core.Report {
	return d.exec.Execute(p, d.g, mode).Summary(len(d.PEs))
}

// StepReport runs one token step and returns the full per-node graph
// report (per-stream occupancy included in stream-aware modes).
func (d *Decoder) StepReport(p *sim.Proc, mode graph.Mode) *graph.Report {
	return d.exec.Execute(p, d.g, mode)
}

// Output returns the block output (Hidden elements, identical on every
// PE after a step).
func (f *ParallelFFN) Output() *shmem.Symm { return f.Op.Out }

// DecodeStep runs one token step of the block through the graph
// executor: eager (bulk-synchronous second layer + library AllReduce)
// or compiled (the fusion pass substitutes the fused GEMV + AllReduce).
func (f *ParallelFFN) DecodeStep(p *sim.Proc, fused bool) core.Report {
	mode := graph.Eager
	if fused {
		mode = graph.Compiled
	}
	return f.Step(p, mode)
}

// Step runs one token step in any execution mode (Eager, Compiled, or
// Pipelined).
func (f *ParallelFFN) Step(p *sim.Proc, mode graph.Mode) core.Report {
	return f.exec.Execute(p, f.g, mode).Summary(len(f.PEs))
}

// Executor returns the block's executor, for tuning pipeline depth.
func (f *ParallelFFN) Executor() *graph.Executor { return &f.exec }
