package core

// Chunk-range metadata: the per-chunk dataflow contract the graph
// partition pass needs to prove cross-pair (inter-layer) chunk
// dependencies. Every pair operator already splits its phases into
// chunks over one dimension — output tiles for GEMV + AllReduce, token
// row bands for GEMM + All-to-All, tables for embedding + All-to-All.
// ChunkOut says which sub-range of the operator's *output* chunk c
// finalizes; ChunkIn says which sub-range of the operator's *input*
// chunk c's compute reads, when such a restriction exists at all.
//
// A consumer chunk may start as soon as the producer chunks covering
// its input range have finished — the wavefront rewiring that removes
// the full-tensor drain at a layer boundary. The proof obligation is
// honest: GEMV reports no input range (every output tile reads the
// whole input vector, so a GEMV pair can never consume upstream chunks
// early), while a GEMM row band reads only its own A-matrix rows and an
// embedding chunk only its own tables' lookups.
//
// Ranges from different operators are compared *fractionally* (Lo/Units
// vs Hi/Units) under a matching RangeKind: two Rows-kind operators
// joined by a graph edge declare that the consumer's token rows are an
// order-preserving slicing of the producer's token dimension (the MoE
// stack's uniform routing assumption), even when the absolute row
// counts differ (TopK fan-out, per-block vs per-GPU row counts).

// RangeKind names the dimension a pair operator's chunks tile.
type RangeKind int

const (
	// RangeRows is a token/batch row band (GEMM + All-to-All, rowwise
	// per-rank nodes, sub-block dispatch exchanges).
	RangeRows RangeKind = iota
	// RangeElems is an output-vector element range (GEMV + AllReduce
	// tiles).
	RangeElems
	// RangeTables is an embedding-table range (embedding + All-to-All).
	RangeTables
)

func (k RangeKind) String() string {
	switch k {
	case RangeRows:
		return "rows"
	case RangeElems:
		return "elems"
	case RangeTables:
		return "tables"
	}
	return "range(?)"
}

// ChunkRange is the half-open sub-range [Lo,Hi) of Units total work
// items, in the dimension Kind, that one chunk covers.
type ChunkRange struct {
	Kind   RangeKind
	Lo, Hi int
	// Units is the dimension's total extent, the denominator of the
	// fractional comparison across operators.
	Units int
}

// Empty reports whether the range covers nothing.
func (r ChunkRange) Empty() bool { return r.Hi <= r.Lo || r.Units <= 0 }

// CoversPrefix reports whether the producer prefix [0,Hi) of this range
// covers the consumer range in's prefix [0,in.Hi), fractionally:
// Hi/Units >= in.Hi/in.Units, compared exactly in integers. Kinds must
// match.
func (r ChunkRange) CoversPrefix(in ChunkRange) bool {
	if r.Kind != in.Kind || r.Units <= 0 || in.Units <= 0 {
		return false
	}
	return int64(r.Hi)*int64(in.Units) >= int64(in.Hi)*int64(r.Units)
}

// ChunkRanger is the chunk-range surface of a pair operator: the
// metadata the partition pass consults when rewiring adjacent chunked
// chains into a wavefront.
type ChunkRanger interface {
	// ChunkOut returns the output sub-range chunk c of n finalizes
	// (complete once the chunk's collective has run).
	ChunkOut(c, n int) ChunkRange
	// ChunkIn returns the input sub-range chunk c of n's compute reads,
	// and whether such a restriction exists: ok == false means the
	// chunk reads the operator's whole input (GEMV), so no upstream
	// chunk edge is provable.
	ChunkIn(c, n int) (ChunkRange, bool)
}

// ChunkSpan returns the balanced split [lo,hi) of units work items into
// n chunks at index c — the chunk arithmetic of the pair operators,
// exported so graph-level rowwise nodes tile identically.
func ChunkSpan(c, n, units int) (lo, hi int) { return chunkRange(c, n, units) }

// --- GEMV + AllReduce ---

// ChunkOut: chunk c finalizes the contiguous output element range of
// its tile band.
func (op *GEMVAllReduce) ChunkOut(c, n int) ChunkRange {
	lo, hi := op.chunkElems(c, n)
	return ChunkRange{Kind: RangeElems, Lo: lo, Hi: hi, Units: op.m}
}

// ChunkIn: a GEMV output tile reads the operator's whole input vector,
// so no chunked input range exists — a GEMV pair can never start before
// its producer has fully finished.
func (op *GEMVAllReduce) ChunkIn(c, n int) (ChunkRange, bool) { return ChunkRange{}, false }

// --- GEMM + All-to-All ---

// ChunkOut: chunk c finalizes the token row band [r0,r1) of every
// destination block — fraction r1/tokens of the combine output.
func (op *GEMMAllToAll) ChunkOut(c, n int) ChunkRange {
	r0, r1 := op.chunkRows(c, n)
	return ChunkRange{Kind: RangeRows, Lo: r0, Hi: r1, Units: op.tokens}
}

// ChunkIn: the GEMM tiles of row band [r0,r1) read only the A-matrix
// rows of that band (B is operator-local weights), so chunk c needs
// just the upstream chunks covering its row fraction.
func (op *GEMMAllToAll) ChunkIn(c, n int) (ChunkRange, bool) {
	r0, r1 := op.chunkRows(c, n)
	return ChunkRange{Kind: RangeRows, Lo: r0, Hi: r1, Units: op.tokens}, true
}

// --- Embedding + All-to-All ---

// ChunkOut: chunk c finalizes the pooled-and-exchanged blocks of its
// table range.
func (op *EmbeddingAllToAll) ChunkOut(c, n int) ChunkRange {
	t0, t1 := op.chunkTables(c, n)
	return ChunkRange{Kind: RangeTables, Lo: t0, Hi: t1, Units: op.T}
}

// ChunkIn: pooling tables [t0,t1) reads only those tables' lookup
// indices and weights.
func (op *EmbeddingAllToAll) ChunkIn(c, n int) (ChunkRange, bool) {
	t0, t1 := op.chunkTables(c, n)
	return ChunkRange{Kind: RangeTables, Lo: t0, Hi: t1, Units: op.T}, true
}
