package core

import (
	"fmt"

	"fusedcc/internal/collectives"
	"fusedcc/internal/gpu"
	"fusedcc/internal/kernels"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
	"fusedcc/internal/trace"
)

// EmbeddingAllToAll is the fused embedding-pooling + All-to-All operator
// (§III-A, Fig 6). Each of k ranks owns T embedding tables and pools
// them over the global batch B; the pooled rows are exchanged so that
// every rank ends up with its local batch shard L = B/k of every table,
// laid out {L, k*T*D} — exactly what DLRM's interaction operator
// consumes, with no shuffle kernel.
//
// The fused execution is one persistent kernel per rank: logical WGs
// (one per SliceRows/RowsPerWG fraction of a slice) pool rows; the last
// WG to finish a slice — detected through the per-slice WG_Done bitmask
// — communicates it. Cross-node slices travel as one non-blocking put
// followed by an ordered sliceRdy flag; same-node slices are written
// with zero-copy stores directly into the destination layout and only
// the flag is sent. Communication-aware scheduling orders remote slices
// first.
type EmbeddingAllToAll struct {
	World       *shmem.World
	PEs         []int
	Sets        []*kernels.EmbeddingSet
	GlobalBatch int
	// SliceRows is the communication granularity: pooled rows per slice.
	SliceRows int
	// RowsPerWG is the pooled rows one logical WG computes (the paper's
	// kernels use 1; benchmarks coarsen it to bound simulation cost —
	// timing is unchanged because the cost model is linear in rows).
	RowsPerWG int
	Config    Config

	// Out is the operator output, {L, k*T*D} row-major per PE.
	Out *shmem.Symm

	k, T, D, L int
	send       *shmem.Symm
	recv       *shmem.Symm // lazy: baseline receive staging
	rowStride  int
}

// NewEmbeddingAllToAll validates shapes and allocates the output and
// staging symmetric buffers.
func NewEmbeddingAllToAll(w *shmem.World, pes []int, sets []*kernels.EmbeddingSet, globalBatch, sliceRows int, cfg Config) (*EmbeddingAllToAll, error) {
	op := &EmbeddingAllToAll{
		World: w, PEs: pes, Sets: sets,
		GlobalBatch: globalBatch, SliceRows: sliceRows, RowsPerWG: 1, Config: cfg,
	}
	op.k = len(pes)
	if op.k == 0 || len(sets) != op.k {
		return nil, fmt.Errorf("core: %d PEs with %d embedding sets", op.k, len(sets))
	}
	for s, set := range sets {
		if err := set.Validate(); err != nil {
			return nil, fmt.Errorf("core: rank %d: %w", s, err)
		}
		if set.Batch() != globalBatch {
			return nil, fmt.Errorf("core: rank %d batch %d != global %d", s, set.Batch(), globalBatch)
		}
		if set.Tables() != sets[0].Tables() || set.Dim() != sets[0].Dim() {
			return nil, fmt.Errorf("core: rank %d table shape differs", s)
		}
	}
	op.T, op.D = sets[0].Tables(), sets[0].Dim()
	if globalBatch%op.k != 0 {
		return nil, fmt.Errorf("core: global batch %d not divisible by %d ranks", globalBatch, op.k)
	}
	op.L = globalBatch / op.k
	if sliceRows <= 0 || op.L%sliceRows != 0 {
		return nil, fmt.Errorf("core: slice rows %d must divide local batch %d", sliceRows, op.L)
	}
	op.rowStride = op.k * op.T * op.D
	op.Out = w.Malloc(op.L * op.rowStride)
	op.send = w.Malloc(op.T * globalBatch * op.D)
	return op, nil
}

// slicesPerTable returns B/S, the slice count per table per rank.
func (op *EmbeddingAllToAll) slicesPerTable() int { return op.GlobalBatch / op.SliceRows }

// numSlices returns the per-rank slice count.
func (op *EmbeddingAllToAll) numSlices() int { return op.T * op.slicesPerTable() }

// flagsPerPE returns the sliceRdy flag count per PE: one per incoming
// (and locally produced) slice.
func (op *EmbeddingAllToAll) flagsPerPE() int { return op.k * op.T * (op.L / op.SliceRows) }

// sliceDst returns the destination rank of slice sl (slices are S
// consecutive batch rows, so destination is constant within a slice).
func (op *EmbeddingAllToAll) sliceDst(sl int) int {
	batchSlice := sl % op.slicesPerTable()
	return batchSlice * op.SliceRows / op.L
}

// sliceTable returns the local table index of slice sl.
func (op *EmbeddingAllToAll) sliceTable(sl int) int { return sl / op.slicesPerTable() }

// sliceBatch returns the first global batch row of slice sl.
func (op *EmbeddingAllToAll) sliceBatch(sl int) int {
	return (sl % op.slicesPerTable()) * op.SliceRows
}

// flagIndex returns the sliceRdy index at the destination for a slice
// produced by rank src, table t, landing rows [b0, b0+S) of the
// destination's local batch.
func (op *EmbeddingAllToAll) flagIndex(src, t, b0, dst int) int {
	localSlice := (b0 - dst*op.L) / op.SliceRows
	return (src*op.T+t)*(op.L/op.SliceRows) + localSlice
}

// scheduleSlices returns the slice execution order for rank s.
func (op *EmbeddingAllToAll) scheduleSlices(s int) []int {
	order := make([]int, 0, op.numSlices())
	if op.Config.Schedule == Oblivious {
		return op.obliviousOrder()
	}
	// Comm-aware: destinations by descending link cost (cross-node NIC
	// slices first, then fabric peers, self last); table-major within
	// each destination.
	for _, d := range commAwareDestOrder(op.World.Platform(), op.PEs, s) {
		for sl := 0; sl < op.numSlices(); sl++ {
			if op.sliceDst(sl) == d {
				order = append(order, sl)
			}
		}
	}
	return order
}

// obliviousOrder mirrors the hardware dispatcher's WG(0,0,0)-first
// enumeration in the paper's kernels (Fig 6): batch-slice major, tables
// fastest — so a rank whose first batch shard is its own computes every
// local slice before any remote one.
func (op *EmbeddingAllToAll) obliviousOrder() []int {
	order := make([]int, 0, op.numSlices())
	for bs := 0; bs < op.slicesPerTable(); bs++ {
		for t := 0; t < op.T; t++ {
			order = append(order, t*op.slicesPerTable()+bs)
		}
	}
	return order
}

// dstOffset returns the element offset in Out on the destination for
// (global table gt, destination-local row lr).
func (op *EmbeddingAllToAll) dstOffset(gt, lr int) int {
	return lr*op.rowStride + gt*op.D
}

// RunFused executes the fused operator: one persistent kernel per rank,
// all ranks concurrent. It blocks the coordinator until every rank's
// kernel (including its sliceRdy tail wait) retires, and returns the
// run report.
func (op *EmbeddingAllToAll) RunFused(p *sim.Proc) Report {
	w := op.World
	pl := w.Platform()
	e := pl.E
	rep := Report{Start: e.Now(), PEEnd: make([]sim.Time, op.k)}
	sliceRdy := w.MallocFlags(op.flagsPerPE())
	rowsPerWG := op.RowsPerWG
	if rowsPerWG <= 0 {
		rowsPerWG = 1
	}
	if op.SliceRows%rowsPerWG != 0 {
		panic(fmt.Sprintf("core: RowsPerWG %d must divide SliceRows %d", rowsPerWG, op.SliceRows))
	}
	itemsPerSlice := op.SliceRows / rowsPerWG

	// Simulated persistent-WG count (lane-coarsened), identical on all
	// ranks: devices share one configuration.
	dev0 := pl.Device(op.PEs[0])
	phys := dev0.Config().CUs * op.Config.fusedWGsPerCU(dev0) / rowsPerWG
	if phys < 1 {
		phys = 1
	}
	if t := op.numSlices() * itemsPerSlice; phys > t {
		phys = t
	}
	// storeDone[dst][src*phys+w]: same-node source WG w finished (and
	// fenced) all its zero-copy stores into dst.
	storeDone := w.MallocFlags(op.k * phys)

	wgAll := sim.NewWaitGroup(e)
	wgAll.Add(op.k)
	for s := 0; s < op.k; s++ {
		s := s
		pe := op.PEs[s]
		dev := pl.Device(pe)
		e.Go(fmt.Sprintf("fused.emb/rank%d", s), func(rp *sim.Proc) {
			op.runRank(rp, s, dev, sliceRdy, storeDone, itemsPerSlice, rowsPerWG, phys, &rep)
			rep.PEEnd[s] = rp.Now()
			wgAll.Done()
		})
	}
	wgAll.Wait(p)
	rep.End = e.Now()
	return rep
}

// runRank launches rank s's persistent kernel and blocks until it ends.
//
// Synchronization follows the paper: cross-node slices are published
// with a put + fence + sliceRdy flag at slice granularity (§III-A);
// same-node destinations receive thread-granular zero-copy stores, and
// each physical WG raises one fenced storeDone flag per peer after its
// last store there (§III-B's "one ready flag per peer GPU"), avoiding a
// fence per slice.
func (op *EmbeddingAllToAll) runRank(rp *sim.Proc, s int, dev *gpu.Device, sliceRdy, storeDone *shmem.Flags, itemsPerSlice, rowsPerWG, phys int, rep *Report) {
	w := op.World
	slices := op.scheduleSlices(s)
	trackers := make([]*Bitmask, op.numSlices())
	for i := range trackers {
		trackers[i] = NewBitmask(itemsPerSlice)
	}
	totalItems := len(slices) * itemsPerSlice
	functional := op.Out.On(op.PEs[s]).Functional()
	tl := op.Config.Timeline
	tracePE := tl.Enabled() && s == 0
	crossNodeTo := func(d int) bool {
		return !w.Platform().SameNode(op.PEs[s], op.PEs[d]) ||
			(op.Config.DisableZeroCopy && d != s)
	}
	lSlices := op.L / op.SliceRows

	dev.Launch(rp, gpu.Kernel{
		Name:     fmt.Sprintf("fused.emb.%d", s),
		PhysWGs:  phys,
		WGsPerCU: op.Config.fusedWGsPerCU(dev),
		Lanes:    rowsPerWG,
		Body: func(wg *gpu.WG) {
			var scratch []float32
			if functional {
				scratch = make([]float32, rowsPerWG*op.D)
			}
			// Outstanding same-node items per destination, for the
			// one-flag-per-peer protocol.
			remaining := make([]int, op.k)
			for idx := wg.PhysID; idx < totalItems; idx += phys {
				d := op.sliceDst(slices[idx/itemsPerSlice])
				if !crossNodeTo(d) {
					remaining[d]++
				}
			}
			raise := func(d int) {
				w.SendFlag(wg, op.PEs[d], storeDone, s*phys+wg.PhysID, 1)
			}
			for d := 0; d < op.k; d++ {
				if !crossNodeTo(d) && remaining[d] == 0 {
					raise(d)
				}
			}
			for idx := wg.PhysID; idx < totalItems; idx += phys {
				sl := slices[idx/itemsPerSlice]
				within := idx % itemsPerSlice
				t := op.sliceTable(sl)
				b0 := op.sliceBatch(sl) + within*rowsPerWG
				d := op.sliceDst(sl)
				dstPE := op.PEs[d]
				gt := s*op.T + t
				bag := op.Sets[s].Bags[t]
				start := wg.P.Now()
				crossNode := crossNodeTo(d)
				if crossNode {
					// Pool into the staging buffer; the slice travels
					// later as one put.
					bag.ComputeRows(wg, b0, rowsPerWG, op.send.On(op.PEs[s]), (t*op.GlobalBatch+b0)*op.D)
				} else {
					// Zero-copy: pool in registers, store directly
					// into the destination layout (local rows are
					// plain stores into our own Out).
					bag.GatherRows(wg, b0, rowsPerWG, scratch)
					w.SendValuesRows(wg, dstPE, op.Out, op.dstOffset(gt, b0-d*op.L), op.rowStride, scratch, rowsPerWG, op.D)
				}
				if tracePE {
					tl.Add(wg.PhysID, trace.Compute, start, wg.P.Now(), fmt.Sprintf("slice%d", sl))
				}
				wg.Busy(op.Config.Bookkeeping)
				last := trackers[sl].Set(within)
				if crossNode {
					if last {
						// Last finisher communicates the slice.
						fi := op.flagIndex(s, t, op.sliceBatch(sl), d)
						sb := op.sliceBatch(sl)
						w.PutNbiRows(wg, dstPE, op.Out,
							op.dstOffset(gt, sb-d*op.L), op.rowStride,
							op.send.On(op.PEs[s]), (t*op.GlobalBatch+sb)*op.D, op.D,
							op.SliceRows, op.D)
						w.Fence(wg)
						w.PutFlagNbi(wg, dstPE, sliceRdy, fi, 1)
						rep.RemotePuts++
						rep.RemoteBytes += float64(op.SliceRows*op.D) * 4
						if tracePE {
							tl.Add(wg.PhysID, trace.PutIssue, wg.P.Now(), wg.P.Now(), fmt.Sprintf("slice%d->%d", sl, d))
						}
					}
				} else {
					if d != s {
						rep.RemotePuts++
						rep.RemoteBytes += float64(rowsPerWG*op.D) * 4
					}
					if tracePE && last && d == s {
						tl.Add(wg.PhysID, trace.LocalDone, wg.P.Now(), wg.P.Now(), fmt.Sprintf("slice%d", sl))
					}
					remaining[d]--
					if remaining[d] == 0 {
						raise(d) // fences this WG's stores to d, then flags
					}
				}
			}
			// Tail: the kernel retires only when every slice of the
			// output is ready. Cross-node producers are tracked by
			// sliceRdy flags (slice granularity), same-node producers by
			// their per-WG storeDone flags; each persistent WG polls a
			// distinct subset of both.
			waitStart := wg.P.Now()
			for src := 0; src < op.k; src++ {
				if !w.Platform().SameNode(op.PEs[src], op.PEs[s]) ||
					(op.Config.DisableZeroCopy && src != s) {
					base := src * op.T * lSlices
					for f := wg.PhysID; f < op.T*lSlices; f += phys {
						sliceRdy.WaitGE(wg, base+f, 1)
					}
				} else {
					for f := wg.PhysID; f < phys; f += phys {
						storeDone.WaitGE(wg, src*phys+f, 1)
					}
				}
			}
			if tracePE && wg.P.Now() > waitStart {
				tl.Add(wg.PhysID, trace.WaitSpan, waitStart, wg.P.Now(), "sliceRdy")
			}
		},
	})
}

// RunKernelSplit executes the decomposition alternative of Wang et
// al. [58] that the paper argues against (§IV-A, §V): the batch is cut
// into shards, each shard runs as its own embedding kernel, and shard
// i's All-to-All overlaps shard i+1's compute on a second stream. Every
// shard pays kernel-launch overhead and the smaller grids underutilize
// the device — the "16384 additional kernel launches" cost the fused
// persistent kernel avoids.
func (op *EmbeddingAllToAll) RunKernelSplit(p *sim.Proc, shards int) Report {
	w := op.World
	pl := w.Platform()
	e := pl.E
	rep := Report{Start: e.Now(), PEEnd: make([]sim.Time, op.k)}
	if shards < 1 || op.L%shards != 0 {
		panic(fmt.Sprintf("core: %d shards must divide local batch %d", shards, op.L))
	}
	rowsPerWG := op.RowsPerWG
	if rowsPerWG <= 0 {
		rowsPerWG = 1
	}
	cnt := op.T * op.L * op.D
	recv := w.Malloc(op.k * cnt)
	shardBatch := op.GlobalBatch / shards
	comm := collectives.New(pl, op.PEs)

	// computeShard runs one embedding kernel per rank covering all
	// tables for the shard's batch rows, writing the bucketized layout.
	computeShard := func(cp *sim.Proc, sh int) {
		wg := sim.NewWaitGroup(e)
		wg.Add(op.k)
		for s := 0; s < op.k; s++ {
			s := s
			pe := op.PEs[s]
			dev := pl.Device(pe)
			e.Go(fmt.Sprintf("split.emb/rank%d", s), func(rp *sim.Proc) {
				sendBuf := op.send.On(pe)
				rows := op.T * shardBatch
				lanes := rowsPerWG
				if shardBatch%lanes != 0 {
					lanes = 1 // keep groups within one table/destination
				}
				grid := (rows + lanes - 1) / lanes
				dev.LaunchGridLanes(rp, "emb.shard", grid, 0, lanes, func(wgc *gpu.WG, l int) {
					item := l * lanes
					t := item / shardBatch
					b0 := sh*shardBatch + item%shardBatch
					d := b0 / op.L
					off := d*cnt + t*op.L*op.D + (b0-d*op.L)*op.D
					op.Sets[s].Bags[t].ComputeRows(wgc, b0, lanes, sendBuf, off)
				})
				wg.Done()
			})
		}
		wg.Wait(cp)
	}

	// Pipeline: compute stream runs shards back to back; the comm
	// stream issues shard i's exchange while shard i+1 computes.
	ready := sim.NewFlag(e)
	commDone := sim.NewFlag(e)
	e.Go("split.comm", func(cp *sim.Proc) {
		for sh := 0; sh < shards; sh++ {
			ready.WaitGE(cp, int64(sh+1))
			comm.AllToAll(cp, op.send, recv, cnt/shards, op.Config.Collective)
		}
		commDone.Set(1)
	})
	for sh := 0; sh < shards; sh++ {
		computeShard(p, sh)
		ready.Add(1)
	}
	commDone.WaitGE(p, 1)
	rep.End = e.Now()
	for s := range rep.PEEnd {
		rep.PEEnd[s] = rep.End
	}
	return rep
}

// recvBuf lazily allocates the baseline receive staging buffer.
func (op *EmbeddingAllToAll) recvBuf() *shmem.Symm {
	if op.recv == nil {
		op.recv = op.World.Malloc(op.k * op.T * op.L * op.D)
	}
	return op.recv
}

// MaxChunks returns the finest pipelining granularity the operator
// supports: one table per chunk (tables are the contiguous unit of the
// bucketized send layout), never less than 1.
func (op *EmbeddingAllToAll) MaxChunks() int {
	if op.T < 1 {
		return 1
	}
	return op.T
}

// chunkTables returns the table range [t0,t1) of chunk c of n.
func (op *EmbeddingAllToAll) chunkTables(c, n int) (t0, t1 int) {
	return chunkRange(c, n, op.T)
}

// RunPooling executes only the compute half of the bulk-synchronous
// path: per-table embedding kernels on every rank concurrently, writing
// the bucketized send buffer. This is the eager-mode body of a graph
// EmbeddingBag node.
func (op *EmbeddingAllToAll) RunPooling(p *sim.Proc) Report {
	return op.RunPoolingChunk(p, 0, 1)
}

// RunPoolingChunk executes chunk c of n of the compute half: the pooling
// kernels of this chunk's table range only. The n chunks together pool
// every table exactly once into the same bucketized staging, so chunked
// execution stays bit-exact with eager. This is the body of a
// partitioned (pipelined) graph EmbeddingBag sub-node.
func (op *EmbeddingAllToAll) RunPoolingChunk(p *sim.Proc, c, n int) Report {
	pl := op.World.Platform()
	e := pl.E
	t0, t1 := op.chunkTables(c, n)
	if t1 <= t0 {
		return emptyChunkReport(e.Now(), op.k)
	}
	rep := Report{Start: e.Now(), PEEnd: make([]sim.Time, op.k)}
	cnt := op.T * op.L * op.D
	rowsPerWG := op.RowsPerWG
	if rowsPerWG <= 0 {
		rowsPerWG = 1
	}
	wgAll := sim.NewWaitGroup(e)
	wgAll.Add(op.k)
	for s := 0; s < op.k; s++ {
		s := s
		pe := op.PEs[s]
		dev := pl.Device(pe)
		e.Go(fmt.Sprintf("base.emb/rank%d", s), func(rp *sim.Proc) {
			sendBuf := op.send.On(pe)
			for t := t0; t < t1; t++ {
				t := t
				bag := op.Sets[s].Bags[t]
				grid := (op.GlobalBatch + rowsPerWG - 1) / rowsPerWG
				dev.LaunchGridLanes(rp, "embeddingbag", grid, 0, rowsPerWG, func(wg *gpu.WG, l int) {
					b0 := l * rowsPerWG
					n := rowsPerWG
					if b0+n > op.GlobalBatch {
						n = op.GlobalBatch - b0
					}
					// Row groups never straddle a destination because
					// RowsPerWG divides SliceRows divides the local
					// batch, so the bucketized rows are contiguous.
					d := b0 / op.L
					off := d*cnt + t*op.L*op.D + (b0-d*op.L)*op.D
					bag.ComputeRows(wg, b0, n, sendBuf, off)
				})
			}
			rep.PEEnd[s] = rp.Now()
			wgAll.Done()
		})
	}
	wgAll.Wait(p)
	rep.End = e.Now()
	return rep
}

// RunExchange executes only the communication half of the bulk-
// synchronous path: the RCCL-style All-to-All over the bucketized send
// buffer plus the shuffle kernels that interleave the received
// [src][T][L][D] blocks into the {L, k*T*D} output layout (the
// rearrangement the fused operator's point-to-point layout avoids).
// This is the eager-mode body of a graph AllToAll node.
func (op *EmbeddingAllToAll) RunExchange(p *sim.Proc) Report {
	return op.RunExchangeChunk(p, 0, 1)
}

// RunExchangeChunk executes chunk c of n of the communication half: the
// sub-block All-to-All moving only this chunk's table range of every
// destination block, plus the shuffle kernels for those tables. Chunk
// table ranges are disjoint and cover all tables, so the n chunked
// exchanges move and interleave exactly what the single full exchange
// would.
func (op *EmbeddingAllToAll) RunExchangeChunk(p *sim.Proc, c, n int) Report {
	pl := op.World.Platform()
	e := pl.E
	t0, t1 := op.chunkTables(c, n)
	if t1 <= t0 {
		return emptyChunkReport(e.Now(), op.k)
	}
	rep := Report{Start: e.Now(), PEEnd: make([]sim.Time, op.k)}
	cnt := op.T * op.L * op.D
	recv := op.recvBuf()

	comm := chunkComm(pl, op.PEs, c)
	comm.AllToAllSub(p, op.send, recv, cnt, t0*op.L*op.D, (t1-t0)*op.L*op.D, op.Config.Collective)

	wgAll := sim.NewWaitGroup(e)
	wgAll.Add(op.k)
	for s := 0; s < op.k; s++ {
		s := s
		pe := op.PEs[s]
		dev := pl.Device(pe)
		e.Go(fmt.Sprintf("base.shuffle/rank%d", s), func(rp *sim.Proc) {
			out := op.Out.On(pe)
			rbuf := recv.On(pe)
			tables := t1 - t0
			grid := op.k * tables
			dev.LaunchGrid(rp, "shuffle", grid, 0, func(wg *gpu.WG, l int) {
				src, t := l/tables, t0+l%tables
				blockBytes := float64(op.L*op.D) * 4
				wg.Read(blockBytes)
				wg.Write(blockBytes)
				if out.Functional() {
					for lr := 0; lr < op.L; lr++ {
						out.CopyWithin(op.dstOffset(src*op.T+t, lr), rbuf, src*cnt+t*op.L*op.D+lr*op.D, op.D)
					}
				}
			})
			rep.PEEnd[s] = rp.Now()
			wgAll.Done()
		})
	}
	wgAll.Wait(p)
	rep.End = e.Now()
	return rep
}

// RunBaseline executes the bulk-synchronous comparator: per-table
// embedding kernels writing a bucketized send buffer, an RCCL-style
// All-to-All, and a shuffle kernel that interleaves the received blocks
// into the {L, k*T*D} layout (§IV-A baseline).
func (op *EmbeddingAllToAll) RunBaseline(p *sim.Proc) Report {
	rep := op.RunPooling(p)
	ex := op.RunExchange(p)
	rep.End = ex.End
	copy(rep.PEEnd, ex.PEEnd)
	return rep
}
