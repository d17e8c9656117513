package graph

import (
	"fmt"
	"strings"
)

// Pattern identifies one fusion rewrite the compiler knows.
type Pattern int

const (
	// PatternGEMVAllReduce rewrites gemv → all_reduce to the fused
	// GEMV + AllReduce persistent kernel (§III-B).
	PatternGEMVAllReduce Pattern = iota
	// PatternEmbeddingAllToAll rewrites embedding_bag → all_to_all to
	// the fused embedding + All-to-All persistent kernel (§III-A).
	PatternEmbeddingAllToAll
	// PatternGEMMAllToAll rewrites matmul → all_to_all to the fused
	// Triton-built GEMM + All-to-All kernel (§III-B, §III-D).
	PatternGEMMAllToAll
	// PatternGradExchange rewrites the bulk-synchronous embedding-
	// gradient exchange to the fused overlapped exchange (Fig 15).
	PatternGradExchange
	numPatterns
)

func (pt Pattern) String() string {
	switch pt {
	case PatternGEMVAllReduce:
		return "gemv+all_reduce"
	case PatternEmbeddingAllToAll:
		return "embedding_bag+all_to_all"
	case PatternGEMMAllToAll:
		return "matmul+all_to_all"
	case PatternGradExchange:
		return "embedding_grad_exchange"
	}
	return fmt.Sprintf("pattern(%d)", int(pt))
}

// CompileOptions tunes the fusion pass. The zero value enables every
// pattern.
type CompileOptions struct {
	// Disable lists patterns the pass must not apply.
	Disable []Pattern
}

func (o CompileOptions) enabled(pt Pattern) bool {
	for _, d := range o.Disable {
		if d == pt {
			return false
		}
	}
	return true
}

// Rewrite records one applied fusion.
type Rewrite struct {
	Pattern Pattern
	// Compute and Collective name the replaced nodes (Compute is empty
	// for the gradient-exchange implementation swap).
	Compute, Collective string
	// Fused names the substituted node.
	Fused string
}

// CompileReport summarizes a fusion pass.
type CompileReport struct {
	Rewrites []Rewrite
	// Unfused counts collective nodes left on the eager path.
	Unfused int
	// Lowered marks a deterministic no-op: the input graph already
	// contained chunk sub-nodes from a lowering pass, so it was returned
	// unchanged (fusing half of a chunked schedule would corrupt it).
	Lowered bool
}

func (r *CompileReport) String() string {
	if r.Lowered {
		return "compile: input graph already lowered (chunk nodes present); no-op\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "compile: %d fusion(s), %d collective(s) left eager\n", len(r.Rewrites), r.Unfused)
	for _, rw := range r.Rewrites {
		if rw.Compute != "" {
			fmt.Fprintf(&b, "  %s: (%s, %s) -> %s\n", rw.Pattern, rw.Compute, rw.Collective, rw.Fused)
		} else {
			fmt.Fprintf(&b, "  %s: %s -> %s\n", rw.Pattern, rw.Collective, rw.Fused)
		}
	}
	return b.String()
}

// Compile runs the fusion lowering (the Compiled policy): it returns a
// new graph in which every adjacent compute→collective pair matching an
// enabled pattern is replaced by the corresponding fused
// computation-collective node, and every eager gradient exchange by its
// fused counterpart. Unmatched nodes are copied unchanged and still run
// as eager baselines. The input graph is not modified; both graphs
// share the same backing operators (and therefore buffers), so eager
// and compiled runs of the same model are directly comparable.
//
// A pair fuses only when the collective directly consumes the compute
// node's value, both are bound to the same backing operator, and the
// compute node has no other consumer (fusing it would hide the staged
// intermediate another node reads).
func Compile(g *Graph, opt CompileOptions) (*Graph, *CompileReport) {
	lg, rep := lower(g, policy{mode: Compiled, opts: opt})
	return lg, rep.Compile
}
