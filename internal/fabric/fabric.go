// Package fabric models the scale-up interconnect between GPUs within a
// node: a fully-connected set of directed links in the spirit of AMD
// Infinity Fabric or NVLink (Table I: 4 GPUs fully connected at 80 GB/s).
//
// Scale-up communication happens with native load/store instructions, so
// the unit of traffic is a store stream issued by a workgroup, not an
// RDMA message: stores from one WG are naturally ordered (the WG waits
// for its own stores before raising flags), and many WGs across GPUs
// share a link, which is where the contention that caps the GEMV +
// AllReduce gains at large M comes from (paper Fig 9).
package fabric

import (
	"fmt"

	"fusedcc/internal/sim"
)

// Config describes the intra-node fabric.
type Config struct {
	// LinkBandwidth is the bytes/sec of each directed peer link.
	LinkBandwidth float64
	// StoreLatency is the one-time latency to open a remote store
	// stream (coherence/ordering cost).
	StoreLatency sim.Duration
	// PerWGStoreBandwidth caps the store rate of a single workgroup.
	PerWGStoreBandwidth float64
	// CopyEfficiency derates blit-kernel/DMA copies (Copy) relative to
	// the raw link: copy engines and protocol handshakes keep library
	// collectives below peak link bandwidth. Fine-grained stores from
	// compute workgroups (StoreAsync) are not derated. Zero means 1.0.
	CopyEfficiency float64
}

// DefaultConfig mirrors Table I: 80 GB/s fully-connected links.
func DefaultConfig() Config {
	return Config{
		LinkBandwidth:       80e9,
		StoreLatency:        700 * sim.Nanosecond,
		PerWGStoreBandwidth: 3e9,
		CopyEfficiency:      0.65,
	}
}

// copyRate returns the effective per-copy bandwidth cap.
func (c Config) copyRate() float64 {
	if c.CopyEfficiency <= 0 || c.CopyEfficiency >= 1 {
		return 0 // uncapped: full link share
	}
	return c.LinkBandwidth * c.CopyEfficiency
}

// Fabric is a fully-connected intra-node interconnect over n endpoints.
type Fabric struct {
	e     *sim.Engine
	cfg   Config
	n     int
	links [][]*sim.Resource // [src][dst], nil on the diagonal
}

// New builds a fabric over n endpoints (GPU IDs 0..n-1).
func New(e *sim.Engine, n int, cfg Config) *Fabric {
	if n < 1 {
		panic("fabric: need at least one endpoint")
	}
	if cfg.LinkBandwidth <= 0 {
		panic("fabric: LinkBandwidth must be positive")
	}
	f := &Fabric{e: e, cfg: cfg, n: n, links: make([][]*sim.Resource, n)}
	for s := 0; s < n; s++ {
		f.links[s] = make([]*sim.Resource, n)
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			f.links[s][d] = sim.NewResource(e, fmt.Sprintf("if.%d->%d", s, d), cfg.LinkBandwidth, nil)
		}
	}
	return f
}

// Size returns the endpoint count.
func (f *Fabric) Size() int { return f.n }

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Link exposes the directed link resource from src to dst (for
// utilization reporting). Panics on the diagonal.
func (f *Fabric) Link(src, dst int) *sim.Resource {
	l := f.links[src][dst]
	if l == nil {
		panic(fmt.Sprintf("fabric: no link %d->%d", src, dst))
	}
	return l
}

// StoreAsync streams bytes from src to dst as native stores issued by a
// workgroup standing for lanes real workgroups, and calls onDone
// (optional) when the last byte lands. The stream opens after the store latency,
// then moves at the lane-scaled per-WG store rate under the link's
// fair sharing. Stores to self are accounted by the GPU memory model,
// so they complete at once.
func (f *Fabric) StoreAsync(src, dst int, bytes float64, lanes int, onDone func()) {
	if src == dst || bytes <= 0 {
		if onDone != nil {
			f.e.At(f.e.Now(), onDone)
		}
		return
	}
	lanes = max(lanes, 1)
	link := f.Link(src, dst)
	rate := f.cfg.PerWGStoreBandwidth * float64(lanes)
	f.e.After(f.cfg.StoreLatency, func() {
		link.TransferAsync(bytes, rate, onDone)
	})
}

// Copy streams bytes from src to dst as a blit-kernel / DMA copy — the
// data path of the baseline collectives — at the derated copy rate.
func (f *Fabric) Copy(p *sim.Proc, src, dst int, bytes float64) {
	if src == dst || bytes <= 0 {
		return
	}
	p.Sleep(f.cfg.StoreLatency)
	f.Link(src, dst).Transfer(p, bytes, f.cfg.copyRate())
}
