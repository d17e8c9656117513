package graph

import (
	"fmt"

	"fusedcc/internal/collectives"
	"fusedcc/internal/core"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

// chunk is the position of a lowered chunk sub-node: chunk c of n.
// The zero value (n == 0) marks a whole node as built; a lowering pass
// substitutes chunk sub-nodes, which is how the passes recognize an
// already-lowered graph and refuse to re-chunk it.
type chunk struct{ c, n int }

func (ch chunk) chunkOf() chunk { return ch }

// name renders the op name of the chunk: base for a whole node,
// "base[c/n]" for a chunk sub-node.
func (ch chunk) name(base string) string {
	if ch.n == 0 {
		return base
	}
	return fmt.Sprintf("%s[%d/%d]", base, ch.c, ch.n)
}

// cn returns the chunk as (c, n), a whole node being chunk 0 of 1.
func (ch chunk) cn() (c, n int) { return ch.c, max(ch.n, 1) }

// span returns the chunk's balanced share [lo,hi) of units work items
// (all of them for a whole node).
func (ch chunk) span(units int) (lo, hi int) {
	c, n := ch.cn()
	return core.ChunkSpan(c, n, units)
}

// chunkCost prices chunk c of n of a node's work on each device
// stream.
type chunkCost interface {
	EstimateComputeChunk(c, n int) sim.Duration
	EstimateCollectiveChunk(c, n int) sim.Duration
}

// pairEstimator is the cost surface of a pair operator the cost model
// consults. All three core pair operators implement it.
type pairEstimator interface {
	chunkCost
	EstimateFused() sim.Duration
	MaxChunks() int
	SaturationChunks() int
}

// rowwise is a node whose work splits into row bands: a rowwise
// per-rank node or a row-structured exchange. A wavefront lowering
// splits it into chunk sub-nodes; the cost model prices its bands when
// it is priced.
type rowwise interface {
	chunkCost
	rowRange() (kind core.RangeKind, units int)
	withChunk(ch chunk) Op
	priced() bool
}

// pairSurface is everything the planner reads from a pair operator: its
// cost surface, its chunk-range metadata, and its fused kernel.
type pairSurface interface {
	pairEstimator
	core.ChunkRanger
	RunFused(p *sim.Proc) core.Report
}

// pair is the planner's single view of a compute→collective pair
// operator, built once by the EmbeddingBag, GEMV and MatMul builders:
// the fusion pattern, the op name of each phase, the chunked phase
// entry points and the output buffer. A whole phase is chunk 0 of 1 of
// its chunked entry point.
type pair struct {
	pairSurface
	pattern Pattern
	// names holds the compute, collective and fused op names, indexed
	// by NodeKind.
	names [3]string
	// run holds the compute and collective chunk entry points, indexed
	// by NodeKind.
	run [2]func(p *sim.Proc, c, n int) core.Report
	out *shmem.Symm
}

// pairOp runs one phase of a pair: the compute or collective half
// (whole, or one chunk of it) or, for KindFused, the fused kernel.
type pairOp struct {
	pr   *pair
	kind NodeKind
	chunk
}

func (o *pairOp) OpName() string { return o.name(o.pr.names[o.kind]) }
func (o *pairOp) Kind() NodeKind { return o.kind }

func (o *pairOp) Run(p *sim.Proc) core.Report {
	if o.kind == KindFused {
		return o.pr.RunFused(p)
	}
	c, n := o.cn()
	return o.pr.run[o.kind](p, c, n)
}

// pairOf returns the pair a node runs a phase of, or nil.
func pairOf(n *Node) *pair {
	if n == nil {
		return nil
	}
	if o, ok := n.op.(*pairOp); ok {
		return o.pr
	}
	return nil
}

// ---- per-rank compute ops ----

// runPerRank runs body concurrently on every rank of g.
func runPerRank(p *sim.Proc, g *Graph, body func(rp *sim.Proc, rank, pe int)) core.Report {
	e := g.world.Platform().E
	rep := core.Report{Start: e.Now(), PEEnd: make([]sim.Time, len(g.pes))}
	wg := sim.NewWaitGroup(e)
	wg.Add(len(g.pes))
	for rank, pe := range g.pes {
		rank, pe := rank, pe
		e.Go(fmt.Sprintf("graph.rank%d", rank), func(rp *sim.Proc) {
			body(rp, rank, pe)
			rep.PEEnd[rank] = rp.Now()
			wg.Done()
		})
	}
	wg.Wait(p)
	rep.End = e.Now()
	return rep
}

type perRankOp struct {
	g  *Graph
	fn func(p *sim.Proc, rank, pe int)
}

func (o *perRankOp) OpName() string              { return "per_rank" }
func (o *perRankOp) Kind() NodeKind              { return KindCompute }
func (o *perRankOp) Run(p *sim.Proc) core.Report { return runPerRank(p, o.g, o.fn) }

// rowsOp is a per-rank compute node whose work decomposes row-wise over
// a declared dimension: the body runs an arbitrary contiguous row range
// on every rank. Whole, it runs every row in one node; a wavefront
// lowering splits it into chunk sub-nodes aligned with adjacent chunked
// pairs, so chunk-granular dependencies flow through it across layer
// boundaries.
type rowsOp struct {
	g    *Graph
	spec RowsSpec
	chunk
}

func (o *rowsOp) OpName() string { return o.name("per_rank_rows") }
func (o *rowsOp) Kind() NodeKind { return KindCompute }

func (o *rowsOp) Run(p *sim.Proc) core.Report {
	lo, hi := o.span(o.spec.Units)
	return runPerRank(p, o.g, func(rp *sim.Proc, rank, pe int) { o.spec.Run(rp, rank, pe, lo, hi) })
}

func (o *rowsOp) rowRange() (core.RangeKind, int) { return o.spec.Kind, o.spec.Units }
func (o *rowsOp) withChunk(ch chunk) Op           { cp := *o; cp.chunk = ch; return &cp }
func (o *rowsOp) priced() bool                    { return o.spec.Estimate != nil }

func (o *rowsOp) EstimateComputeChunk(c, n int) sim.Duration {
	return o.spec.Estimate(core.ChunkSpan(c, n, o.spec.Units))
}

func (o *rowsOp) EstimateCollectiveChunk(c, n int) sim.Duration { return 0 }

// ---- generic collective ops ----

// collectiveReport closes a collective's report: a collective occupies
// every rank until it completes.
func collectiveReport(g *Graph, start sim.Time) core.Report {
	rep := core.Report{Start: start, End: g.world.Platform().E.Now(), PEEnd: make([]sim.Time, len(g.pes))}
	for i := range rep.PEEnd {
		rep.PEEnd[i] = rep.End
	}
	return rep
}

// symmCollectiveOp is a generic library collective over arbitrary
// symmetric buffers — real communication, but with no producing compute
// node in the IR to fuse with.
type symmCollectiveOp struct {
	g          *Graph
	name       string // "all_reduce" | "all_to_all"
	data, recv *shmem.Symm
	off, elems int
	algo       collectives.Algo
}

func (o *symmCollectiveOp) OpName() string { return o.name }
func (o *symmCollectiveOp) Kind() NodeKind { return KindCollective }

func (o *symmCollectiveOp) Run(p *sim.Proc) core.Report {
	pl := o.g.world.Platform()
	start := pl.E.Now()
	comm := collectives.New(pl, o.g.pes)
	if o.name == "all_to_all" {
		comm.AllToAll(p, o.data, o.recv, o.elems, o.algo)
	} else {
		comm.AllReduce(p, o.data, o.off, o.elems, o.algo)
	}
	return collectiveReport(o.g, start)
}

// symmA2ARowsOp is a generic library All-to-All whose per-rank-pair
// block is declared row-structured: rows rows of elemsPerRow elements
// each. Whole, it moves every block at once; a wavefront lowering
// splits it into sub-block chunk exchanges (collectives.AllToAllSub)
// forming a chunk-scheduled chain, so row bands flow through the
// exchange chunk by chunk.
type symmA2ARowsOp struct {
	g          *Graph
	send, recv *shmem.Symm
	rows, epr  int // per-block row count, elements per row
	algo       collectives.Algo
	chunk
}

func (o *symmA2ARowsOp) OpName() string { return o.name("all_to_all") }
func (o *symmA2ARowsOp) Kind() NodeKind { return KindCollective }

// comm returns the communicator of chunk c: chunks after the first ride
// the chunk-scheduled chain (flag-poll dispatch instead of a fresh
// launch and rendezvous, mirroring core's chunked collective chains).
func (o *symmA2ARowsOp) comm(c int) *collectives.Comm {
	comm := collectives.New(o.g.world.Platform(), o.g.pes)
	if c > 0 {
		comm.SetProtocolOverhead(0)
		comm.SetLaunchOverhead(core.ChunkDispatchOverhead)
	}
	return comm
}

func (o *symmA2ARowsOp) Run(p *sim.Proc) core.Report {
	start := o.g.world.Platform().E.Now()
	lo, hi := o.span(o.rows)
	o.comm(o.c).AllToAllSub(p, o.send, o.recv, o.rows*o.epr, lo*o.epr, (hi-lo)*o.epr, o.algo)
	return collectiveReport(o.g, start)
}

func (o *symmA2ARowsOp) rowRange() (core.RangeKind, int)            { return core.RangeRows, o.rows }
func (o *symmA2ARowsOp) withChunk(ch chunk) Op                      { cp := *o; cp.chunk = ch; return &cp }
func (o *symmA2ARowsOp) priced() bool                               { return true }
func (o *symmA2ARowsOp) EstimateComputeChunk(c, n int) sim.Duration { return 0 }

func (o *symmA2ARowsOp) EstimateCollectiveChunk(c, n int) sim.Duration {
	lo, hi := core.ChunkSpan(c, n, o.rows)
	if hi <= lo {
		return 0
	}
	return o.comm(c).EstimateAllToAll((hi-lo)*o.epr, o.algo)
}

// gradExchangeOp is the embedding-gradient exchange: bulk-synchronous,
// or the fused overlapped exchange the Compiled lowering substitutes.
type gradExchangeOp struct {
	op    *core.EmbeddingGradExchange
	fused bool
}

func (o *gradExchangeOp) OpName() string {
	if o.fused {
		return "fused::embedding_grad_exchange"
	}
	return "embedding_grad_exchange"
}

func (o *gradExchangeOp) Kind() NodeKind {
	if o.fused {
		return KindFused
	}
	return KindCollective
}

func (o *gradExchangeOp) Run(p *sim.Proc) core.Report {
	if o.fused {
		return o.op.RunFused(p)
	}
	return o.op.RunBaseline(p)
}
