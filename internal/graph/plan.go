package graph

import (
	"fmt"

	"fusedcc/internal/core"
)

// The planner lowers a graph under one policy. Fusing a compute→
// collective pair into one persistent kernel (the paper's operators),
// splitting it into pipelined chunk chains, chunking it as part of a
// cross-pair wavefront, or leaving it eager are alternative lowerings
// of the same pair, so one planner builds all of them — fusion,
// chunking and scheduling as transformations within one IR, chosen by
// a policy (the CoCoNet/GC3 view). The fixed policies are Compiled
// (fuse every enabled pattern), Pipelined@K and Wavefront@K (chunk
// every pair at K); Auto picks a form per pair and per chain with the
// analytic cost model (select.go).
//
// Lowering has two halves. analyze decides a plan addressed by node id
// (insertion order) rather than node pointer — the expensive half,
// which a PassCache shares across structurally identical graphs built
// on other engines. emit builds the lowered graph a plan prescribes,
// always binding to the graph's own nodes and backing operators. The
// input graph is never modified; both graphs share the same operators
// and buffers, so every lowering stays bit-exact with eager.

// policy is one lowering strategy. It holds only what its mode reads,
// so its key never changes with another mode's settings.
type policy struct {
	mode Mode
	// opts tunes Compiled.
	opts CompileOptions
	// chunks is the requested depth of Pipelined and Wavefront.
	chunks int
	// load is the context Auto prices under.
	load LoadContext
}

// key renders the policy for executor memos and PassCache keys.
func (pol policy) key() string {
	return fmt.Sprintf("%s|disable=%v|k=%d|load=%s", pol.mode, pol.opts.Disable, pol.chunks, pol.load.key())
}

// plan is the analysis half of a lowering.
type plan struct {
	// pol is the policy the plan was decided under.
	pol policy
	// lowered marks a deterministic no-op: the input graph already
	// contained chunk sub-nodes from a lowering, so it is returned
	// unchanged instead of re-chunking chunk nodes (or fusing half of a
	// chunked schedule).
	lowered bool
	// decisions maps the collective node id of every lowered pair to
	// its form: Compiled (fused), Pipelined or Wavefront at Chunks, or
	// Eager (Auto only). Pairs without a decision are copied as built.
	decisions map[int]Decision
	// rows maps the node ids of rowwise nodes chunked as wavefront
	// segments to their chunk depth.
	rows map[int]int
	// fuseGrad swaps every eager gradient exchange for the fused one.
	fuseGrad bool
	// wavefronts lists Auto's wavefront chains in discovery order.
	wavefronts []WavefrontDecision
}

// analyze decides how g lowers under pol.
func analyze(g *Graph, pol policy) *plan {
	pl := &plan{pol: pol, decisions: map[int]Decision{}, rows: map[int]int{}}
	if lowered(g) {
		pl.lowered = true
		return pl
	}
	switch pol.mode {
	case Compiled:
		for coll := range pairMatches(g, pol.opts.enabled) {
			pl.decisions[coll.id] = Decision{Choice: Compiled}
		}
		pl.fuseGrad = pol.opts.enabled(PatternGradExchange)
	case Pipelined, Wavefront:
		// Chunk counts clamp to each operator's granularity; pairs that
		// cannot split at least twice run whole.
		for coll := range pairMatches(g, allPatterns) {
			if k := clampChunks(pol.chunks, pairOf(coll).MaxChunks()); k >= 2 {
				pl.decisions[coll.id] = Decision{Choice: pol.mode, Chunks: k}
			}
		}
		if pol.mode == Wavefront {
			for _, n := range g.nodes {
				if r, ok := n.op.(rowwise); ok {
					_, units := r.rowRange()
					if k := clampChunks(pol.chunks, units); k >= 2 {
						pl.rows[n.id] = k
					}
				}
			}
		}
	case Auto:
		selectAnalyze(g, pl)
	}
	return pl
}

// lower analyzes and emits g under pol in one step.
func lower(g *Graph, pol policy) (*Graph, *Report) {
	return analyze(g, pol).emit(g)
}

// emit builds the lowered graph the plan prescribes, plus a report
// carrying the pass report of the plan's mode. The plan may come from
// analyzing g itself or from a PassCache hit on a structurally
// identical graph (same fingerprint, hence same node ids, names and
// match set).
func (pl *plan) emit(g *Graph) (*Graph, *Report) {
	var (
		rewrites            []Rewrite
		splits              []Split
		decisions           []Decision
		joins               []Join
		rowSplits, unplaced int
	)
	out := g
	if !pl.lowered {
		em := newEmitter(g)
		match := pairMatches(g, allPatterns)
		// The compute half of a fused or chunked pair is emitted at its
		// collective's position.
		merged := map[*Node]bool{}
		for coll, producer := range match {
			if d, ok := pl.decisions[coll.id]; ok && d.Choice != Eager {
				merged[producer] = true
			}
		}
		for _, n := range g.nodes {
			if merged[n] {
				continue
			}
			d, decided := pl.decisions[n.id]
			switch {
			case decided:
				producer, pt := match[n], pairOf(n).pattern
				switch d.Choice {
				case Compiled:
					fn := em.fusePair(producer, n)
					rewrites = append(rewrites, Rewrite{Pattern: pt, Compute: producer.name, Collective: n.name, Fused: fn.name})
				case Pipelined, Wavefront:
					seg := em.chunkChain(producer, n, d.Chunks)
					if d.Choice == Wavefront {
						em.segs[n] = seg // downstream heads may join chunk-granularly
					}
					splits = append(splits, Split{Pattern: pt, Compute: producer.name, Collective: n.name, Chunks: d.Chunks})
				default:
					em.copyNode(n, n.op) // producer was copied at its own position
				}
				decisions = append(decisions, d)
			case pl.rows[n.id] > 0:
				em.segs[n] = em.rowChain(n, pl.rows[n.id])
				rowSplits++
			case pl.fuseGrad && isEagerGradExchange(n):
				fn := em.copyNode(n, &gradExchangeOp{op: n.op.(*gradExchangeOp).op, fused: true})
				rewrites = append(rewrites, Rewrite{Pattern: PatternGradExchange, Collective: n.name, Fused: fn.name})
			default:
				em.copyNode(n, n.op)
				if n.op.Kind() == KindCollective {
					unplaced++
				}
			}
		}
		out, joins = em.out, em.joins
	}
	rep := &Report{Mode: pl.pol.mode}
	switch pl.pol.mode {
	case Compiled:
		rep.Compile = &CompileReport{Rewrites: rewrites, Unfused: unplaced, Lowered: pl.lowered}
	case Pipelined, Wavefront:
		rep.Partition = &PartitionReport{Chunks: pl.pol.chunks, Splits: splits, RowSplits: rowSplits,
			Unsplit: unplaced, Wavefront: pl.pol.mode == Wavefront, Joins: joins, Lowered: pl.lowered}
	case Auto:
		rep.Select = &SelectReport{Decisions: decisions, Load: pl.pol.load,
			Wavefronts: append([]WavefrontDecision(nil), pl.wavefronts...), Unmatched: unplaced, Lowered: pl.lowered}
	}
	return out, rep
}

func isEagerGradExchange(n *Node) bool {
	gx, ok := n.op.(*gradExchangeOp)
	return ok && !gx.fused
}

// allPatterns is the pattern filter that admits every pair.
func allPatterns(Pattern) bool { return true }

// pairMatches returns, for every fusible collective node whose pattern
// passes the filter, its producing compute node. A pair matches only
// when the collective directly consumes the compute node's value, both
// are bound to the same backing operator, and the compute node has no
// other consumer (rewriting it would hide the staged intermediate
// another node reads). Every policy lowers exactly this match set, so
// "what fuses" and "what pipelines" cannot drift apart.
func pairMatches(g *Graph, enabled func(Pattern) bool) map[*Node]*Node {
	match := map[*Node]*Node{}
	for _, c := range g.nodes {
		pr := pairOf(c)
		if pr == nil || c.op.Kind() != KindCollective || !enabled(pr.pattern) {
			continue
		}
		// The producing compute node: the input bound to the same pair.
		var producer *Node
		for _, in := range c.in {
			if ip := pairOf(in); ip != nil && in.op.Kind() == KindCompute && ip.pairSurface == pr.pairSurface {
				producer = in
				break
			}
		}
		if producer == nil || g.consumers(producer) != 1 {
			continue
		}
		match[c] = producer
	}
	return match
}

// lowered reports whether g already contains chunk sub-nodes from a
// lowering.
func lowered(g *Graph) bool {
	for _, n := range g.nodes {
		if o, ok := n.op.(interface{ chunkOf() chunk }); ok && o.chunkOf().n > 0 {
			return true
		}
	}
	return false
}

// clampChunks bounds a requested chunk count to a granularity.
func clampChunks(chunks, max int) int {
	if chunks > max {
		return max
	}
	if chunks < 1 {
		return 1
	}
	return chunks
}

// ---- emission ----

// segChain records one emitted chunk chain: the per-chunk "ready" nodes
// downstream chunk edges may attach to, and the output range each chunk
// finalizes.
type segChain struct {
	k int
	// tails[c] is chunk c's final node (the collective chunk for pairs,
	// the chunk node itself for rowwise segments).
	tails []*Node
	out   func(c int) core.ChunkRange
}

// chunkFor returns the tail of the minimal chunk whose output prefix
// covers the consumer range in (chunks are contiguous ascending, so the
// prefix through chunk c ends at out(c).Hi), or nil when the kinds do
// not match or no chunk covers it.
func (s *segChain) chunkFor(in core.ChunkRange) *Node {
	if in.Empty() {
		return nil
	}
	for c := 0; c < s.k; c++ {
		if s.out(c).CoversPrefix(in) {
			return s.tails[c]
		}
	}
	return nil
}

// emitter builds a lowered graph, tracking the mapping from source
// nodes to their substitutes so later nodes' dependencies resolve.
type emitter struct {
	out      *Graph
	replaced map[*Node]*Node
	// segs maps an original segment tail node (a wavefront pair's
	// collective, a rowwise node) to its emitted chunk chain — the
	// wavefront rewiring state. A plan registers exactly the segments
	// it chunks as wavefront members.
	segs  map[*Node]*segChain
	joins []Join
}

func newEmitter(g *Graph) *emitter {
	return &emitter{out: New(g.world, g.pes, g.cfg), replaced: map[*Node]*Node{}, segs: map[*Node]*segChain{}}
}

// emit appends a freshly built node to the output graph.
func (em *emitter) emit(n *Node) *Node {
	n.id, n.g = len(em.out.nodes), em.out
	em.out.nodes = append(em.out.nodes, n)
	em.out.gen++
	return n
}

// copyNode substitutes op for source node n (op is n.op for a plain
// copy), dependencies remapped.
func (em *emitter) copyNode(n *Node, op Op) *Node {
	cp := &Node{name: n.name, op: op}
	cp.in = mapInputs(n.in, em.replaced)
	em.emit(cp)
	em.replaced[n] = cp
	return cp
}

// fusePair replaces the (producer, collective) pair with one fused node
// inheriting both nodes' dependencies.
func (em *emitter) fusePair(producer, coll *Node) *Node {
	fn := &Node{name: producer.name + "+" + coll.name, op: &pairOp{pr: pairOf(coll), kind: KindFused}}
	fn.in = mapInputs(append(append([]*Node{}, producer.in...), exclude(coll.in, producer)...), em.replaced)
	em.emit(fn)
	em.replaced[producer] = fn
	em.replaced[coll] = fn
	return fn
}

// headDeps resolves the dependency set of one chunk of a segment head:
// a dependency on a registered upstream chunk chain becomes
// chunk-granular when this chunk's input range (in, inOK) is provably
// covered by an upstream chunk prefix; everything else resolves to the
// producer's full substitute. joined de-duplicates the join records per
// (upstream, segment) pair.
func (em *emitter) headDeps(origs []*Node, in core.ChunkRange, inOK bool, joined map[*Node]bool, consumer string, k int) []*Node {
	var out []*Node
	seen := map[*Node]bool{}
	for _, o := range origs {
		var dep *Node
		if inOK {
			if seg := em.segs[o]; seg != nil {
				if t := seg.chunkFor(in); t != nil {
					dep = t
					if !joined[o] {
						joined[o] = true
						em.joins = append(em.joins, Join{Producer: o.name, Consumer: consumer, Chunks: k})
					}
				}
			}
		}
		if dep == nil {
			m, ok := em.replaced[o]
			if !ok {
				panic(fmt.Sprintf("graph: input %q not part of the compiled graph", o.name))
			}
			dep = m
		}
		if !seen[dep] {
			seen[dep] = true
			out = append(out, dep)
		}
	}
	return out
}

// chunkChain replaces the (producer, collective) pair with k
// interleaved chunk chains
//
//	compute#0 → collective#0, compute#1 → collective#1, ...
//
// with dependency edges compute#c → compute#c+1 and collective#c →
// collective#c+1 modeling the per-stream program order, so chunk c's
// collective overlaps chunk c+1's compute. The compute chain inherits
// the compute node's dependencies — chunk-granularly where a wavefront
// proves alignment with a registered upstream chain, full-tensor
// otherwise; the collective chain inherits the collective's remaining
// dependencies plus its own chunk's compute node. Downstream consumers
// of the pair depend on the final chunks (unless themselves rewired).
// The chunk sub-nodes run the operator's phase entry points over
// disjoint work ranges, so a chunked pair performs exactly the eager
// pair's work.
func (em *emitter) chunkChain(producer, coll *Node, k int) *segChain {
	pr := pairOf(coll)
	collDeps := mapInputs(exclude(coll.in, producer), em.replaced)
	seg := &segChain{k: k, tails: make([]*Node, k), out: func(c int) core.ChunkRange { return pr.ChunkOut(c, k) }}
	joined := map[*Node]bool{}
	var prevComp, prevColl *Node
	for c := 0; c < k; c++ {
		in, inOK := pr.ChunkIn(c, k)
		comp := &Node{name: fmt.Sprintf("%s#%d", producer.name, c), op: &pairOp{pr: pr, kind: KindCompute, chunk: chunk{c, k}}}
		comp.in = em.headDeps(producer.in, in, inOK, joined, producer.name, k)
		if prevComp != nil {
			comp.in = append(comp.in, prevComp)
		}
		em.emit(comp)
		cl := &Node{name: fmt.Sprintf("%s#%d", coll.name, c), op: &pairOp{pr: pr, kind: KindCollective, chunk: chunk{c, k}}}
		cl.in = append(cl.in, comp)
		cl.in = append(cl.in, collDeps...)
		if prevColl != nil {
			cl.in = append(cl.in, prevColl)
		}
		em.emit(cl)
		seg.tails[c] = cl
		prevComp, prevColl = comp, cl
	}
	em.replaced[producer] = prevComp
	em.replaced[coll] = prevColl
	return seg
}

// rowChain replaces a rowwise node (per-rank rows, row-structured
// exchange) with k chunk sub-nodes chained in program order, each
// reading — and finalizing — its own row band, with head dependencies
// resolved chunk-granularly like chunkChain.
func (em *emitter) rowChain(n *Node, k int) *segChain {
	r := n.op.(rowwise)
	kind, units := r.rowRange()
	band := func(c int) core.ChunkRange {
		lo, hi := core.ChunkSpan(c, k, units)
		return core.ChunkRange{Kind: kind, Lo: lo, Hi: hi, Units: units}
	}
	seg := &segChain{k: k, tails: make([]*Node, k), out: band}
	joined := map[*Node]bool{}
	var prev *Node
	for c := 0; c < k; c++ {
		node := &Node{name: fmt.Sprintf("%s#%d", n.name, c), op: r.withChunk(chunk{c, k})}
		node.in = em.headDeps(n.in, band(c), true, joined, n.name, k)
		if prev != nil {
			node.in = append(node.in, prev)
		}
		em.emit(node)
		seg.tails[c] = node
		prev = node
	}
	em.replaced[n] = prev
	return seg
}

// exclude returns ins without node x.
func exclude(ins []*Node, x *Node) []*Node {
	var out []*Node
	for _, in := range ins {
		if in != x {
			out = append(out, in)
		}
	}
	return out
}

// mapInputs rewrites dependency pointers into the new graph, dropping
// duplicates introduced by pair merging.
func mapInputs(ins []*Node, replaced map[*Node]*Node) []*Node {
	var out []*Node
	seen := map[*Node]bool{}
	for _, in := range ins {
		m, ok := replaced[in]
		if !ok {
			// Input precedes this node in topological order, so it has
			// been emitted already; missing means a foreign node.
			panic(fmt.Sprintf("graph: input %q not part of the compiled graph", in.name))
		}
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}
