// Package shmem provides GPU-initiated intra-kernel communication in the
// style of ROC_SHMEM / NVSHMEM (paper §II-B): a symmetric heap across
// processing elements (PEs, one per GPU) and waitable flags, written
// from inside simulated kernels through a workgroup context.
//
// A workgroup sends its finished results to a peer along one of two
// paths, matching the paper:
//
//   - Staged puts (§III-A): PutNbiRows posts a block from a local buffer
//     on the pair's ordered channel (an RDMA queue pair over the NIC, or
//     a DMA channel over the fabric within a node); Fence and PutFlagNbi
//     then publish it. Delivery is asynchronous; ordering within a pair
//     makes put-fence-flag correct.
//   - Route-selecting sends (§III-B): SendValuesRows / SendValues write
//     register-resident results to any PE and SendFlag publishes them.
//     Within a node they become zero-copy native stores streamed over
//     the fabric directly into the peer's memory; across nodes they
//     become staged puts. One fused kernel thus runs unchanged on
//     scale-up, scale-out and hybrid clusters.
package shmem

import (
	"fmt"

	"fusedcc/internal/fabric"
	"fusedcc/internal/gpu"
	"fusedcc/internal/netsim"
	"fusedcc/internal/platform"
	"fusedcc/internal/sim"
)

// Config sets the overhead constants of the GPU-initiated API (§III-C:
// "API latency" and book-keeping costs).
type Config struct {
	// PutAPIOverhead is the workgroup-side cost of issuing one
	// non-blocking put (building the descriptor, ringing the doorbell).
	PutAPIOverhead sim.Duration
	// FlagAPIOverhead is the workgroup-side cost of a flag update.
	FlagAPIOverhead sim.Duration
	// ChannelOverhead is the per-message processing cost on the
	// transfer engine.
	ChannelOverhead sim.Duration
}

// DefaultConfig mirrors the ROC_SHMEM v1.6 costs assumed in DESIGN.md §4.
func DefaultConfig() Config {
	return Config{
		PutAPIOverhead:  200 * sim.Nanosecond,
		FlagAPIOverhead: 100 * sim.Nanosecond,
		ChannelOverhead: 300 * sim.Nanosecond,
	}
}

// World is a communication world spanning every GPU of a platform.
type World struct {
	pl     *platform.Platform
	cfg    Config
	chans  map[[2]int]*netsim.Channel
	fnets  map[int]*fabricNet     // per node, lazily built
	stores map[storeKey]*sim.Flag // outstanding native stores per (pair, WG)
}

// NewWorld attaches a world to a platform.
func NewWorld(pl *platform.Platform, cfg Config) *World {
	return &World{
		pl:     pl,
		cfg:    cfg,
		chans:  make(map[[2]int]*netsim.Channel),
		fnets:  make(map[int]*fabricNet),
		stores: make(map[storeKey]*sim.Flag),
	}
}

// Platform returns the underlying hardware.
func (w *World) Platform() *platform.Platform { return w.pl }

// Config returns the world's API overhead constants (for quasi-static
// cost estimates that price puts and flag updates without issuing them).
func (w *World) Config() Config { return w.cfg }

// NPEs returns the PE count (== GPU count).
func (w *World) NPEs() int { return w.pl.NDevices() }

// Route classifies the data path from srcPE to dstPE: RouteLocal (same
// device), RouteFabric (same-node peer — the zero-copy native-store
// path), or RouteNIC (cross-node RDMA put). Fused kernels on hybrid
// clusters must agree with this classification: native stores along a
// RouteNIC pair panic (impossible on hardware), puts along a RouteFabric
// pair ride the fabric channel.
func (w *World) Route(srcPE, dstPE int) Route {
	switch {
	case srcPE == dstPE:
		return RouteLocal
	case w.pl.SameNode(srcPE, dstPE):
		return RouteFabric
	default:
		return RouteNIC
	}
}

// Route is a data-path class between two PEs.
type Route int

const (
	// RouteLocal is a device-local copy.
	RouteLocal Route = iota
	// RouteFabric is the same-node scale-up path (native stores / blits).
	RouteFabric
	// RouteNIC is the cross-node scale-out path (RDMA over the NIC).
	RouteNIC
)

func (r Route) String() string {
	switch r {
	case RouteLocal:
		return "local"
	case RouteFabric:
		return "fabric"
	default:
		return "nic"
	}
}

// fabricNet adapts an intra-node fabric to the netsim.Network interface
// so the same ordered-channel machinery drives intra-node DMA puts.
type fabricNet struct{ f *fabric.Fabric }

func (fn *fabricNet) Nodes() int { return fn.f.Size() }
func (fn *fabricNet) Path(src, dst int) ([]*sim.Resource, sim.Duration) {
	if src == dst {
		return nil, 0
	}
	return []*sim.Resource{fn.f.Link(src, dst)}, fn.f.Config().StoreLatency
}

// Lookahead implements netsim.Network: the fabric store latency bounds
// how soon one local PE can affect another.
func (fn *fabricNet) Lookahead() sim.Duration { return fn.f.Config().StoreLatency }

// CouplingLinks implements netsim.Network over local PE indices. Fabric
// couplings never feed cluster-level partitioning (the platform declares
// shmem nodes zero-latency-coupled instead), but the interface is
// honest: every PE pair couples at the store latency.
func (fn *fabricNet) CouplingLinks() []sim.Link {
	var ls []sim.Link
	for a := 0; a < fn.f.Size(); a++ {
		for b := a + 1; b < fn.f.Size(); b++ {
			ls = append(ls, sim.Link{A: a, B: b, Latency: fn.f.Config().StoreLatency})
		}
	}
	return ls
}

// channel returns (building lazily) the ordered channel from srcPE to
// dstPE. Cross-node pairs ride the NIC network; same-node pairs ride the
// fabric through the adapter.
func (w *World) channel(srcPE, dstPE int) *netsim.Channel {
	key := [2]int{srcPE, dstPE}
	if c, ok := w.chans[key]; ok {
		return c
	}
	var c *netsim.Channel
	if w.pl.SameNode(srcPE, dstPE) {
		node := w.pl.NodeOf(srcPE)
		fn, ok := w.fnets[node]
		if !ok {
			f := w.pl.FabricOf(srcPE)
			if f == nil {
				panic(fmt.Sprintf("shmem: no fabric for same-node put %d->%d", srcPE, dstPE))
			}
			fn = &fabricNet{f: f}
			w.fnets[node] = fn
		}
		c = netsim.NewChannel(w.pl.E, fn, w.pl.LocalIdx(srcPE), w.pl.LocalIdx(dstPE), w.cfg.ChannelOverhead)
	} else {
		net := w.pl.Network()
		if net == nil {
			panic(fmt.Sprintf("shmem: no network for cross-node put %d->%d", srcPE, dstPE))
		}
		c = netsim.NewChannel(w.pl.E, net, w.pl.NodeOf(srcPE), w.pl.NodeOf(dstPE), w.cfg.ChannelOverhead)
	}
	w.chans[key] = c
	return c
}

// Symm is a symmetric-heap allocation: one buffer of identical shape per
// PE, registered for remote access (the roc_shmem_malloc analogue).
type Symm struct {
	w    *World
	n    int
	bufs []*gpu.Buffer
}

// Malloc allocates n float32 elements on every PE's symmetric heap.
func (w *World) Malloc(n int) *Symm {
	s := &Symm{w: w, n: n, bufs: make([]*gpu.Buffer, w.NPEs())}
	for pe := range s.bufs {
		s.bufs[pe] = w.pl.Device(pe).Alloc(n)
	}
	return s
}

// Len returns the per-PE element count.
func (s *Symm) Len() int { return s.n }

// On returns the buffer instance on a PE.
func (s *Symm) On(pe int) *gpu.Buffer { return s.bufs[pe] }

// Flags is a symmetric array of waitable flags, one set per PE.
type Flags struct {
	w     *World
	flags [][]*sim.Flag
}

// MallocFlags allocates count flags on every PE.
func (w *World) MallocFlags(count int) *Flags {
	f := &Flags{w: w, flags: make([][]*sim.Flag, w.NPEs())}
	for pe := range f.flags {
		f.flags[pe] = make([]*sim.Flag, count)
		for i := range f.flags[pe] {
			f.flags[pe][i] = sim.NewFlag(w.pl.E)
		}
	}
	return f
}

// On returns flag idx on a PE (for host-side inspection).
func (f *Flags) On(pe, idx int) *sim.Flag { return f.flags[pe][idx] }

// WaitGE blocks the workgroup until the *local* flag idx reaches v —
// the roc_shmem_wait_until(..., GE, v) analogue.
func (f *Flags) WaitGE(wg *gpu.WG, idx int, v int64) {
	f.flags[wg.Dev.ID()][idx].WaitGE(wg.P, v)
}

// rowCopy returns the closure that lands a block of rows of rowLen
// elements, dstStride apart from dstOff, in dbuf. The rows come from
// src at srcOff with srcStride, read when the closure runs (a put's
// source is read at delivery, as on hardware); or, when src is nil, from
// vals, register-resident results snapshotted now so the caller may
// reuse its scratch space. Nil vals or a timing-mode destination copy
// nothing.
func rowCopy(dbuf *gpu.Buffer, dstOff, dstStride int, src *gpu.Buffer, srcOff, srcStride int, vals []float32, rows, rowLen int) func() {
	if src != nil {
		return func() {
			for r := 0; r < rows; r++ {
				dbuf.CopyWithin(dstOff+r*dstStride, src, srcOff+r*srcStride, rowLen)
			}
		}
	}
	if vals == nil || !dbuf.Functional() {
		return func() {}
	}
	snap := append([]float32(nil), vals[:rows*rowLen]...)
	return func() {
		for r := 0; r < rows; r++ {
			copy(dbuf.Data()[dstOff+r*dstStride:dstOff+r*dstStride+rowLen], snap[r*rowLen:(r+1)*rowLen])
		}
	}
}

// post sends bytes from srcPE to dstPE on the pair's ordered channel and
// runs apply at delivery. The transfer engine reads the staging buffer
// and the delivery writes destination memory — intermediate-buffering
// traffic the zero-copy store path avoids.
func (w *World) post(srcPE, dstPE int, bytes float64, apply func()) {
	w.pl.Device(srcPE).HBM().TransferAsync(bytes, 0, nil)
	w.channel(srcPE, dstPE).Post(bytes, func() {
		w.pl.Device(dstPE).HBM().TransferAsync(bytes, 0, nil)
		apply()
	})
}

// PutNbiRows issues a non-blocking put of a strided block: rows of
// rowLen elements, read from src at srcOff with srcStride, landing at
// dstOff with dstStride in dstPE's instance of the symmetric
// allocation. The call returns after the API overhead; the block
// travels as a single message on the pair's ordered channel and lands
// at delivery time. Source data is read at delivery (the producer must
// not overwrite it before the consumer's flag, as on hardware). One
// message per block is the point-to-point layout freedom the paper
// exploits to deliver All-to-All slices directly in the layout the
// interaction kernel wants (no shuffle kernel on the receiver).
func (w *World) PutNbiRows(wg *gpu.WG, dstPE int, dst *Symm, dstOff, dstStride int, src *gpu.Buffer, srcOff, srcStride, rows, rowLen int) {
	wg.Busy(w.cfg.PutAPIOverhead)
	if rows <= 0 || rowLen <= 0 {
		return
	}
	apply := rowCopy(dst.On(dstPE), dstOff, dstStride, src, srcOff, srcStride, nil, rows, rowLen)
	if srcPE := wg.Dev.ID(); srcPE != dstPE {
		w.post(srcPE, dstPE, float64(rows*rowLen)*4, apply)
		return
	}
	apply()
}

// PutFlagNbi posts a flag update on the same ordered channel as data
// puts, so it lands strictly after every put issued earlier to the same
// PE — the put+fence+flag idiom of the fused kernels collapses into
// this single call when the fence has nothing else to order.
func (w *World) PutFlagNbi(wg *gpu.WG, dstPE int, f *Flags, idx int, delta int64) {
	wg.Busy(w.cfg.FlagAPIOverhead)
	srcPE := wg.Dev.ID()
	target := f.flags[dstPE][idx]
	if srcPE == dstPE {
		target.Add(delta)
		return
	}
	w.channel(srcPE, dstPE).Post(8, func() { target.Add(delta) })
}

// Fence orders prior puts to dstPE before subsequent ones. Channels
// already deliver in order, so the fence costs only its API overhead.
func (w *World) Fence(wg *gpu.WG) { wg.Busy(w.cfg.FlagAPIOverhead) }

// remoteStore issues bytes of native stores from wg toward a same-node
// peer. Stores retire through write-combining buffers: the workgroup is
// charged only a small issue cost and proceeds; the bytes stream over
// the fabric asynchronously (fabric.StoreAsync: the lane-scaled per-WG
// store rate, sharing the link fairly) and apply lands when the last
// byte arrives. Visibility is established by storeFence /
// storeRemoteFlag, which wait for the pair's outstanding stores — the
// fence-the-stores-then-flag idiom of the zero-copy fused kernels
// (§III-B).
func (w *World) remoteStore(wg *gpu.WG, dstPE int, bytes float64, apply func()) {
	srcPE := wg.Dev.ID()
	if !w.pl.SameNode(srcPE, dstPE) {
		panic(fmt.Sprintf("shmem: native store across nodes (%d->%d); use PutNbiRows", srcPE, dstPE))
	}
	wg.Busy(w.cfg.FlagAPIOverhead) // store-issue cost
	cnt := w.storeInFlight(srcPE, dstPE, wg.PhysID)
	cnt.Add(1)
	dstHBM := w.pl.Device(dstPE).HBM()
	w.pl.FabricOf(srcPE).StoreAsync(w.pl.LocalIdx(srcPE), w.pl.LocalIdx(dstPE), bytes, wg.Lanes, func() {
		dstHBM.TransferAsync(bytes, 0, nil)
		apply()
		cnt.Add(-1)
	})
}

// storeKey identifies one workgroup's store stream to one peer.
type storeKey struct{ srcPE, dstPE, phys int }

// storeInFlight returns the outstanding-store counter for a workgroup's
// stream to a peer.
func (w *World) storeInFlight(srcPE, dstPE, phys int) *sim.Flag {
	key := storeKey{srcPE, dstPE, phys}
	cnt, ok := w.stores[key]
	if !ok {
		cnt = sim.NewFlag(w.pl.E)
		w.stores[key] = cnt
	}
	return cnt
}

// storeFence blocks the workgroup until its own outstanding native
// stores to dstPE have become visible remotely (the cache-flush +
// wait-for-acks sequence of §II-B).
func (w *World) storeFence(wg *gpu.WG, dstPE int) {
	srcPE := wg.Dev.ID()
	if srcPE == dstPE {
		return
	}
	if cnt, ok := w.stores[storeKey{srcPE, dstPE, wg.PhysID}]; ok {
		cnt.WaitEQ(wg.P, 0)
	}
}

// storeValuesRows stores register-resident values as rows of rowLen
// elements landing dstStride apart in dstPE's instance: the zero-copy
// scale-up path (§III-B) for results that never touch local memory.
// Same-PE stores are charged to local memory bandwidth; peer stores are
// issued fire-and-forget (see remoteStore). Cross-node stores are
// impossible on real hardware and panic here.
func (w *World) storeValuesRows(wg *gpu.WG, dstPE int, dst *Symm, dstOff, dstStride int, vals []float32, rows, rowLen int) {
	if rows <= 0 || rowLen <= 0 {
		return
	}
	bytes := float64(rows*rowLen) * 4
	apply := rowCopy(dst.On(dstPE), dstOff, dstStride, nil, 0, 0, vals, rows, rowLen)
	if wg.Dev.ID() == dstPE {
		wg.Write(bytes)
		apply()
		return
	}
	w.remoteStore(wg, dstPE, bytes, apply)
}

// storeRemoteFlag sets a flag on a same-node peer with a native store,
// after fencing the pair's outstanding stores so the flag never becomes
// visible before the data it guards.
func (w *World) storeRemoteFlag(wg *gpu.WG, dstPE int, f *Flags, idx int, delta int64) {
	wg.Busy(w.cfg.FlagAPIOverhead)
	srcPE := wg.Dev.ID()
	if srcPE != dstPE && !w.pl.SameNode(srcPE, dstPE) {
		panic(fmt.Sprintf("shmem: native flag store across nodes (%d->%d)", srcPE, dstPE))
	}
	w.storeFence(wg, dstPE)
	f.flags[dstPE][idx].Add(delta)
}

// putValuesRowsNbi posts register-resident values toward a cross-node
// dstPE on the pair's ordered channel as one message — the scale-out
// counterpart of storeValuesRows. The values are staged through a send
// buffer (charged as a workgroup write) before the transfer engine
// reads them back out.
func (w *World) putValuesRowsNbi(wg *gpu.WG, dstPE int, dst *Symm, dstOff, dstStride int, vals []float32, rows, rowLen int) {
	if rows <= 0 || rowLen <= 0 {
		return
	}
	wg.Busy(w.cfg.PutAPIOverhead)
	bytes := float64(rows*rowLen) * 4
	apply := rowCopy(dst.On(dstPE), dstOff, dstStride, nil, 0, 0, vals, rows, rowLen)
	wg.Write(bytes)
	w.post(wg.Dev.ID(), dstPE, bytes, apply)
}

// SendValuesRows delivers register-resident values to any PE over the
// best path the topology allows — zero-copy native stores within a
// node, ordered channel puts across nodes — and reports which route was
// taken. vals holds rows*rowLen elements row-major (nil in timing mode);
// they are snapshotted at issue. This is what lets one fused kernel run
// unchanged on scale-up, scale-out, and hybrid clusters.
func (w *World) SendValuesRows(wg *gpu.WG, dstPE int, dst *Symm, dstOff, dstStride int, vals []float32, rows, rowLen int) Route {
	route := w.Route(wg.Dev.ID(), dstPE)
	if route == RouteNIC {
		w.putValuesRowsNbi(wg, dstPE, dst, dstOff, dstStride, vals, rows, rowLen)
	} else {
		w.storeValuesRows(wg, dstPE, dst, dstOff, dstStride, vals, rows, rowLen)
	}
	return route
}

// SendValues is SendValuesRows for one contiguous run of n elements.
func (w *World) SendValues(wg *gpu.WG, dstPE int, dst *Symm, dstOff int, vals []float32, n int) Route {
	return w.SendValuesRows(wg, dstPE, dst, dstOff, 0, vals, 1, n)
}

// SendFlag raises a flag on any PE, ordered after this workgroup's
// earlier sends to that PE: a fenced native store within a node, a
// fence + ordered-channel put across nodes.
func (w *World) SendFlag(wg *gpu.WG, dstPE int, f *Flags, idx int, delta int64) {
	if w.Route(wg.Dev.ID(), dstPE) == RouteNIC {
		w.Fence(wg)
		w.PutFlagNbi(wg, dstPE, f, idx, delta)
		return
	}
	w.storeRemoteFlag(wg, dstPE, f, idx, delta)
}
