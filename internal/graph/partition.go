package graph

import (
	"fmt"
	"strings"
)

// The partition pass is the software-pipelining counterpart of the
// fusion pass — the CoCoNet/GC3-style chunked schedule the paper's
// fused operators compete against. Where Compile collapses a
// compute→collective pair into one persistent kernel, Partition splits
// the pair into K chunked sub-node chains so chunk k's collective
// overlaps chunk k+1's compute: the classic way to hide communication
// without fusing, and the third execution mode (Pipelined) of the
// executor.
//
// PartitionWavefront additionally makes chunk ranges first-class
// ACROSS pair boundaries: when the graph proves (via the operators'
// chunk-range metadata and the builders' rowwise declarations) that
// chunk c of a consumer reads only an upstream prefix of chunks, the
// full-tensor join edge between adjacent chunk chains is replaced by
// chunk-granular edges — layer l+1's chunk c waits for layer l's chunk
// c, not for the whole layer-l output. A deep stack then executes as a
// wavefront instead of paying a full pipeline drain at every layer
// boundary (the Wavefront execution mode).

// Split records one partitioned pair.
type Split struct {
	Pattern Pattern
	// Compute and Collective name the replaced pair nodes.
	Compute, Collective string
	// Chunks is the effective chunk count (the requested count clamped
	// to the operator's granularity).
	Chunks int
}

// Join records one full-tensor join edge a wavefront pass replaced by
// chunk-granular edges.
type Join struct {
	// Producer and Consumer name the original nodes at the join: the
	// upstream chunked segment's tail and the downstream segment's head.
	Producer, Consumer string
	// Chunks is the consumer segment's chunk count.
	Chunks int
}

// PartitionReport summarizes a partition pass.
type PartitionReport struct {
	// Chunks is the requested chunk count.
	Chunks int
	Splits []Split
	// RowSplits counts rowwise per-rank nodes and row-structured
	// exchanges split into chunk chains (wavefront passes only).
	RowSplits int
	// Unsplit counts collective nodes left whole (generic collectives,
	// gradient exchanges, pairs too small to chunk).
	Unsplit int
	// Wavefront marks a cross-pair (wavefront) partition pass.
	Wavefront bool
	// Joins lists the layer-boundary join edges rewired to chunk
	// granularity.
	Joins []Join
	// Lowered marks a deterministic no-op: the input graph already
	// contained chunk sub-nodes from a previous lowering pass, so it was
	// returned unchanged instead of re-chunking chunk nodes.
	Lowered bool
}

func (r *PartitionReport) String() string {
	if r.Lowered {
		return "partition: input graph already lowered (chunk nodes present); no-op\n"
	}
	kind := "partition"
	if r.Wavefront {
		kind = "wavefront partition"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (K=%d): %d pair(s) chunked, %d collective(s) left whole", kind, r.Chunks, len(r.Splits), r.Unsplit)
	if r.Wavefront {
		fmt.Fprintf(&b, ", %d rowwise node(s) chunked, %d join(s) rewired", r.RowSplits, len(r.Joins))
	}
	b.WriteString("\n")
	for _, sp := range r.Splits {
		fmt.Fprintf(&b, "  %s: (%s, %s) -> %d chunk chains\n", sp.Pattern, sp.Compute, sp.Collective, sp.Chunks)
	}
	for _, j := range r.Joins {
		fmt.Fprintf(&b, "  join %s -> %s: chunk-granular at K=%d\n", j.Producer, j.Consumer, j.Chunks)
	}
	return b.String()
}

// Partition runs the chunking lowering (the Pipelined@K policy): every
// fusible compute→collective pair (the same single-consumer adjacency
// the fusion lowering matches) is replaced by K interleaved chunk
// chains, so chunk c's collective overlaps chunk c+1's compute under
// both plain dataflow and stream-aware scheduling. Chunk counts clamp
// to each operator's granularity (tiles, tables, row bands); pairs that
// cannot split into at least two chunks are copied unchanged. The
// chunked sub-nodes reuse the operators' phase entry points over
// disjoint work ranges, so a partitioned run is bit-exact with eager.
// Unmatched nodes are copied unchanged; downstream consumers of a
// pair's value depend on the final collective chunk. The input graph is
// not modified; both graphs share the same backing operators and
// buffers. An already-lowered input (chunk nodes present) is returned
// unchanged with Lowered set — the pass never re-chunks chunk nodes.
func Partition(g *Graph, chunks int) (*Graph, *PartitionReport) {
	return partition(g, Pipelined, chunks)
}

// PartitionWavefront runs the chunking lowering with cross-pair
// rewiring (the Wavefront@K policy): in addition to splitting pairs, it
// splits rowwise-declared per-rank nodes and row-structured exchanges
// into chunk chains, and replaces every full-tensor join edge between
// adjacent chunked chains whose ranges provably align (same range kind,
// consumer chunk reading only an upstream fraction prefix) with
// chunk-granular edges. A multi-layer stack whose layer boundaries
// align then executes as a wavefront — layer l+1's chunk c starts after
// layer l's chunk c — removing the L−1 pipeline drains per-pair
// pipelining pays; where no alignment is provable (e.g. a GEMV
// consumer, which reads its whole input) the pass degenerates to
// Partition's per-pair schedule. Bit-exact with eager by the same
// disjoint-range argument, plus the builders' rowwise contracts.
func PartitionWavefront(g *Graph, chunks int) (*Graph, *PartitionReport) {
	return partition(g, Wavefront, chunks)
}

func partition(g *Graph, mode Mode, chunks int) (*Graph, *PartitionReport) {
	lg, rep := lower(g, policy{mode: mode, chunks: max(chunks, 1)})
	return lg, rep.Partition
}
