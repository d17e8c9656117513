package graph

import (
	"fmt"

	"fusedcc/internal/core"
	"fusedcc/internal/gpu"
	"fusedcc/internal/sim"
)

// Mode selects the execution model of a graph run.
type Mode int

const (
	// Eager runs the graph as built: compute nodes as conventional
	// kernels, collective nodes as library collectives — the bulk-
	// synchronous baseline.
	Eager Mode = iota
	// Compiled runs the graph through the fusion pass first, so matched
	// compute→collective pairs execute as fused persistent kernels.
	Compiled
	// Pipelined runs the graph through the partition pass first, so
	// matched pairs execute as K chunked sub-node chains whose
	// collectives overlap later chunks' compute on the per-GPU streams —
	// the software-pipelining alternative to fusion (CoCoNet/GC3 style).
	Pipelined
	// Auto runs the graph through the select pass first: each fusible
	// pair executes in whichever form the analytic cost model predicts
	// fastest — fused, pipelined at a per-pair chunk depth, eager, or a
	// cross-pair wavefront — mixed freely within one graph (quasi-static
	// scheduling in the CoCoNet/GC3 tradition).
	Auto
	// Wavefront runs the graph through the cross-pair partition pass
	// first: pairs, rowwise per-rank nodes, and row-structured exchanges
	// all chunk at depth K, and provably aligned layer-boundary joins
	// become chunk-granular — a deep stack executes as a wavefront
	// (layer l+1's chunk c waits only for layer l's chunk c) instead of
	// draining the pipeline at every layer boundary.
	Wavefront
)

func (m Mode) String() string {
	switch m {
	case Compiled:
		return "compiled"
	case Pipelined:
		return "pipelined"
	case Auto:
		return "auto"
	case Wavefront:
		return "wavefront"
	}
	return "eager"
}

// NodeReport is the per-node line of an execution report.
type NodeReport struct {
	Name string
	Op   string
	Kind NodeKind
	// Start and End bound the node's execution in simulated time.
	Start, End sim.Time
	// RemotePuts and RemoteBytes count the node's GPU-initiated
	// communication (fused nodes only; library collectives move data
	// through the collective cost model instead).
	RemotePuts  int
	RemoteBytes float64
}

// Duration returns the node's simulated execution time.
func (nr NodeReport) Duration() sim.Duration { return nr.End.Sub(nr.Start) }

// StreamReport is the per-GPU stream-occupancy line of a stream-aware
// execution: how long each standing stream held work during the run and
// how much of that time the two streams overlapped.
type StreamReport struct {
	PE int
	// ComputeBusy and CommBusy are the per-stream busy times within the
	// run window.
	ComputeBusy, CommBusy sim.Duration
	// Overlap is the time both streams were busy simultaneously — the
	// communication the schedule actually hid.
	Overlap sim.Duration
}

// Report captures one graph execution.
type Report struct {
	Mode Mode
	// Start and End bound the whole graph (the makespan window).
	Start, End sim.Time
	// PEEnd is each PE's last node-completion time, indexed like the
	// graph's PE list — the per-PE skew input the operator-level
	// consumers (speedup tables, Fig 14) rely on.
	PEEnd []sim.Time
	// Nodes holds one entry per executed node, in graph order.
	Nodes []NodeReport
	// Compile is the fusion-pass report (nil unless Compiled mode).
	Compile *CompileReport
	// Partition is the chunking-pass report (nil unless Pipelined or
	// Wavefront mode).
	Partition *PartitionReport
	// Select is the cost-model decision report (nil unless Auto mode).
	Select *SelectReport
	// Streams holds per-GPU stream occupancy (stream-aware runs only).
	Streams []StreamReport
}

// Duration returns the graph makespan.
func (r *Report) Duration() sim.Duration { return r.End.Sub(r.Start) }

// Node returns the report line of the named node, or nil.
func (r *Report) Node(name string) *NodeReport {
	for i := range r.Nodes {
		if r.Nodes[i].Name == name {
			return &r.Nodes[i]
		}
	}
	return nil
}

// RemotePuts sums GPU-initiated communication operations over nodes.
func (r *Report) RemotePuts() int {
	n := 0
	for i := range r.Nodes {
		n += r.Nodes[i].RemotePuts
	}
	return n
}

// RemoteBytes sums GPU-initiated communication bytes over nodes.
func (r *Report) RemoteBytes() float64 {
	b := 0.0
	for i := range r.Nodes {
		b += r.Nodes[i].RemoteBytes
	}
	return b
}

// StreamOccupancy returns the mean per-GPU busy fraction of the compute
// and comm streams over the makespan window (zeros when the run was not
// stream-aware or took no time).
func (r *Report) StreamOccupancy() (compute, comm float64) {
	if len(r.Streams) == 0 || r.End == r.Start {
		return 0, 0
	}
	span := float64(r.Duration())
	for _, s := range r.Streams {
		compute += float64(s.ComputeBusy) / span
		comm += float64(s.CommBusy) / span
	}
	n := float64(len(r.Streams))
	return compute / n, comm / n
}

// OverlapEfficiency returns the mean fraction of the shorter stream's
// busy time that overlapped the other stream — 1.0 means communication
// was entirely hidden behind compute (or vice versa), 0 means the
// streams ran strictly back to back. GPUs with an idle stream are
// skipped; returns 0 when no GPU had both streams busy.
func (r *Report) OverlapEfficiency() float64 {
	sum, n := 0.0, 0
	for _, s := range r.Streams {
		shorter := s.ComputeBusy
		if s.CommBusy < shorter {
			shorter = s.CommBusy
		}
		if shorter <= 0 {
			continue
		}
		sum += float64(s.Overlap) / float64(shorter)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Summary condenses the graph report into the operator Report shape
// the case studies and experiments consume: the makespan window plus
// total GPU-initiated traffic. Each PE is credited its own last node
// completion (preserving the per-PE skew the operator-level consumers
// measure); a PE the execution recorded no end time for falls back to
// the graph-final time.
func (r *Report) Summary(peCount int) core.Report {
	rep := core.Report{
		Start: r.Start, End: r.End,
		PEEnd:      make([]sim.Time, peCount),
		RemotePuts: r.RemotePuts(), RemoteBytes: r.RemoteBytes(),
	}
	for i := range rep.PEEnd {
		rep.PEEnd[i] = r.End
		if i < len(r.PEEnd) && r.PEEnd[i] > 0 {
			rep.PEEnd[i] = r.PEEnd[i]
		}
	}
	return rep
}

// String renders the report as an aligned per-node table.
func (r *Report) String() string {
	s := fmt.Sprintf("graph run (%s): %v makespan\n", r.Mode, r.Duration())
	for _, nr := range r.Nodes {
		s += fmt.Sprintf("  %-28s %-32s %-10s %12v", nr.Name, nr.Op, nr.Kind, nr.Duration())
		if nr.RemotePuts > 0 {
			s += fmt.Sprintf("  %6d puts %10.1f KB", nr.RemotePuts, nr.RemoteBytes/1e3)
		}
		s += "\n"
	}
	if len(r.Streams) > 0 {
		comp, comm := r.StreamOccupancy()
		s += fmt.Sprintf("  streams: compute %.0f%%, comm %.0f%% occupancy, overlap efficiency %.0f%%\n",
			100*comp, 100*comm, 100*r.OverlapEfficiency())
	}
	return s
}

// DefaultChunks is the chunk depth Pipelined and Wavefront modes use
// when the executor's Chunks field is zero.
const DefaultChunks = 4

// Executor runs graphs with dataflow scheduling: every node starts the
// moment all its dependencies have finished. In stream-aware runs
// (Pipelined, Wavefront and Auto modes, or any mode with Streams set)
// each ready node must additionally acquire its stream — compute/fused
// nodes the compute stream, collective nodes the comm stream, on every
// participating GPU — so concurrent nodes serialize realistically
// on-device instead of enjoying infinite parallelism, and the report
// gains per-stream occupancy statistics.
type Executor struct {
	// Options tunes the fusion lowering used in Compiled mode.
	Options CompileOptions
	// Chunks is the chunk depth of Pipelined and Wavefront modes (0 =
	// DefaultChunks).
	Chunks int
	// Streams forces stream-aware scheduling in every mode. Pipelined,
	// Wavefront and Auto runs are always stream-aware.
	Streams bool
	// Cache, when non-nil, shares Pipelined, Wavefront and Auto plans
	// across executors (and engines) keyed by graph fingerprint — the
	// cross-point artifact cache parallel sweep workers hand to every
	// runner so identical (stack, shape) pairs are priced once per
	// sweep instead of once per point. Safe for concurrent use.
	Cache *PassCache
	// Load is the contention context Auto mode prices under. Zero (the
	// default) selects exactly as on an idle machine; a serving layer
	// sets it from observed queue depth so Select re-prices the forms
	// under load.
	Load LoadContext

	// memo caches the lowered form of each (source graph, mode) so
	// repeated executions (decode loops, training iterations) never
	// re-plan a static graph, and alternating modes never evict each
	// other. An entry is reused while the graph's mutation generation —
	// bumped by any edit, even one that keeps the node count — and the
	// mode's policy key are unchanged; the key holds only what that mode
	// reads, so changing Load never invalidates a Compiled form.
	memo map[memoKey]memoEntry
}

type memoKey struct {
	g    *Graph
	mode Mode
}

type memoEntry struct {
	gen    int    // source graph generation at planning time
	policy string // policy key at planning time
	g      *Graph
	rep    *Report // carries the mode's pass report
}

// chunks resolves the pipeline depth.
func (x *Executor) chunks() int {
	if x.Chunks > 0 {
		return x.Chunks
	}
	return DefaultChunks
}

// policy returns the executor's lowering policy for mode, holding only
// the settings that mode reads.
func (x *Executor) policy(mode Mode) policy {
	switch mode {
	case Compiled:
		return policy{mode: mode, opts: x.Options}
	case Pipelined, Wavefront:
		return policy{mode: mode, chunks: x.chunks()}
	}
	return policy{mode: mode, load: x.Load}
}

// lower returns the memoized lowered form of g under mode, planning on
// first use (or after g was mutated, or after the mode's settings
// changed).
func (x *Executor) lower(g *Graph, mode Mode) (*Graph, *Report) {
	pol := x.policy(mode)
	key, mk := pol.key(), memoKey{g: g, mode: mode}
	if ent, ok := x.memo[mk]; ok && ent.gen == g.gen && ent.policy == key {
		return ent.g, ent.rep
	}
	var pl *plan
	// A Compiled plan prices nothing: matching pairs costs less than the
	// fingerprint that would key it, so it bypasses the cache.
	if x.Cache != nil && mode != Compiled {
		pl = x.Cache.planFor(g, pol)
	} else {
		pl = analyze(g, pol)
	}
	lg, rep := pl.emit(g)
	if x.memo == nil {
		x.memo = map[memoKey]memoEntry{}
	}
	x.memo[mk] = memoEntry{gen: g.gen, policy: key, g: lg, rep: rep}
	return lg, rep
}

// streamKindOf maps a node kind to the device stream it occupies:
// kernels (conventional and fused persistent) issue on the compute
// stream, host-launched library collectives on the comm stream.
func streamKindOf(k NodeKind) gpu.StreamKind {
	if k == KindCollective {
		return gpu.StreamComm
	}
	return gpu.StreamCompute
}

// streamSnapshot records per-device cumulative stream counters so the
// run window's deltas become the report.
type streamSnapshot struct {
	compute, comm, overlap sim.Duration
}

// Execute runs g in the given mode on the coordinating process and
// blocks until every node has finished. Every mode but Eager first
// lowers the graph under the mode's policy — the same lowering Compile,
// Partition, PartitionWavefront or SelectLoaded returns — memoized
// across calls; the input graph is never modified. An empty graph is a
// valid no-op.
func (x *Executor) Execute(p *sim.Proc, g *Graph, mode Mode) *Report {
	rg, rep := g, &Report{Mode: mode}
	streamAware := x.Streams
	switch mode {
	case Compiled, Pipelined, Wavefront, Auto:
		var lrep *Report
		rg, lrep = x.lower(g, mode)
		rep.Compile, rep.Partition, rep.Select = lrep.Compile, lrep.Partition, lrep.Select
		// Chunk chains (mixed with fused and eager nodes under Auto)
		// need the two-queue device model.
		streamAware = streamAware || mode != Compiled
	}

	pl := g.world.Platform()
	e := pl.E
	rep.Start = e.Now()
	rep.Nodes = make([]NodeReport, len(rg.nodes))

	var before map[int]streamSnapshot
	if streamAware {
		before = make(map[int]streamSnapshot, len(rg.pes))
		for _, pe := range rg.pes {
			dev := pl.Device(pe)
			before[pe] = streamSnapshot{
				compute: dev.StreamBusy(gpu.StreamCompute),
				comm:    dev.StreamBusy(gpu.StreamComm),
				overlap: dev.StreamOverlap(),
			}
		}
	}

	// Per-PE last-completion times, merged from every node's per-rank
	// report (rank order matches the graph's PE list). The engine's
	// cooperative scheduling serializes the node goroutines' updates.
	rep.PEEnd = make([]sim.Time, len(rg.pes))

	done := make([]*sim.Flag, len(rg.nodes))
	for i := range done {
		done[i] = sim.NewFlag(e)
	}
	all := sim.NewWaitGroup(e)
	all.Add(len(rg.nodes))
	for i, n := range rg.nodes {
		i, n := i, n
		e.Go(fmt.Sprintf("graph/%s", n.name), func(np *sim.Proc) {
			for _, in := range n.in {
				done[in.id].WaitGE(np, 1)
			}
			var r core.Report
			if streamAware {
				// Acquire the node's stream on every participating GPU in
				// ascending PE order (ordered acquisition: no deadlock),
				// run, release. Holding the whole set serializes the node
				// against same-stream nodes on-device while the other
				// stream keeps flowing — the two-queue overlap model.
				kind := streamKindOf(n.op.Kind())
				for _, pe := range rg.pes {
					pl.Device(pe).Stream(kind).Acquire(np)
				}
				r = n.op.Run(np)
				for _, pe := range rg.pes {
					pl.Device(pe).Stream(kind).Release()
				}
			} else {
				r = n.op.Run(np)
			}
			rep.Nodes[i] = NodeReport{
				Name: n.name, Op: n.op.OpName(), Kind: n.op.Kind(),
				Start: r.Start, End: r.End,
				RemotePuts: r.RemotePuts, RemoteBytes: r.RemoteBytes,
			}
			for pe := 0; pe < len(rep.PEEnd) && pe < len(r.PEEnd); pe++ {
				if r.PEEnd[pe] > rep.PEEnd[pe] {
					rep.PEEnd[pe] = r.PEEnd[pe]
				}
			}
			done[i].Set(1)
			all.Done()
		})
	}
	all.Wait(p)
	rep.End = e.Now()

	if streamAware {
		for _, pe := range rg.pes {
			dev := pl.Device(pe)
			b := before[pe]
			rep.Streams = append(rep.Streams, StreamReport{
				PE:          pe,
				ComputeBusy: dev.StreamBusy(gpu.StreamCompute) - b.compute,
				CommBusy:    dev.StreamBusy(gpu.StreamComm) - b.comm,
				Overlap:     dev.StreamOverlap() - b.overlap,
			})
		}
	}
	return rep
}

// Run executes g in the given mode with a default Executor — the
// one-line entry point for callers with no compile or chunking options
// to set.
func Run(p *sim.Proc, g *Graph, mode Mode) *Report {
	var x Executor
	return x.Execute(p, g, mode)
}
