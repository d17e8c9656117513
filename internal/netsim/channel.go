package netsim

import (
	"fmt"

	"fusedcc/internal/sim"
)

// Channel is reliable in-order delivery from one node to another — the
// analogue of a connected RDMA queue pair. Messages posted to a channel
// are transferred one at a time in post order; completion callbacks fire
// at delivery time on the receiver's clock. Propagation latency is
// pipelined: the next message may start its serialization while an
// earlier one is still in flight.
type Channel struct {
	e        *sim.Engine
	net      Network
	src, dst int
	overhead sim.Duration // per-message posting/doorbell cost

	queue []message
	busy  bool

	posted    int
	delivered int
}

type message struct {
	bytes       float64
	onDelivered func()
}

// NewChannel opens an ordered channel from src to dst over net.
// overhead is the per-message posting cost charged on the channel (WQE
// build + doorbell), not on the posting workgroup.
//
// A channel's queue and delivery callbacks all live on the source
// side's engine, so both endpoints must map to the same shard engine —
// shmem worlds guarantee this by declaring zero-latency couplings that
// collapse the partition (see platform.Config.Partition). A channel
// whose endpoints span shards panics at construction rather than racing.
func NewChannel(w sim.World, net Network, src, dst int, overhead sim.Duration) *Channel {
	if src == dst {
		panic(fmt.Sprintf("netsim: channel to self (node %d)", src))
	}
	e := w.EngineFor(src)
	if e != w.EngineFor(dst) {
		panic(fmt.Sprintf("netsim: channel %d->%d spans shards; the partition must co-shard channel endpoints", src, dst))
	}
	return &Channel{e: e, net: net, src: src, dst: dst, overhead: overhead}
}

// Posted reports how many messages have been posted.
func (c *Channel) Posted() int { return c.posted }

// Delivered reports how many messages have been delivered.
func (c *Channel) Delivered() int { return c.delivered }

// Post enqueues a message of the given size. onDelivered (optional) runs
// when the last byte arrives at dst. Post never blocks the caller — this
// is the non-blocking put primitive the fused kernels rely on.
func (c *Channel) Post(bytes float64, onDelivered func()) {
	c.posted++
	c.queue = append(c.queue, message{bytes: bytes, onDelivered: onDelivered})
	if !c.busy {
		c.busy = true
		c.e.Go(fmt.Sprintf("chan.%d->%d", c.src, c.dst), c.drain)
	}
}

func (c *Channel) drain(p *sim.Proc) {
	for len(c.queue) > 0 {
		m := c.queue[0]
		c.queue = c.queue[1:]
		p.Sleep(c.overhead)
		links, lat := c.net.Path(c.src, c.dst)
		for _, l := range links {
			l.Transfer(p, m.bytes, 0)
		}
		// Serialization done; delivery lands after propagation. Ordering
		// is preserved because latency is constant per channel.
		done := m.onDelivered
		c.e.After(lat, func() {
			c.delivered++
			if done != nil {
				done()
			}
		})
	}
	c.busy = false
}
