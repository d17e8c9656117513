package sim

import (
	"math"
	"sort"
)

// Resource models a shared bandwidth server (memory interface, fabric
// link, NIC) with processor-sharing semantics: concurrent transfers split
// the capacity fairly, subject to an optional per-flow rate cap and an
// efficiency curve eff(n) that scales usable capacity with the number of
// active flows. The efficiency curve is how memory-contention knees (row
// buffer thrash at high occupancy) are expressed.
//
// Rates are piecewise constant between membership changes; on every change
// the engine advances all in-flight transfers and recomputes the
// water-filling allocation, so transfer times are exact for the fluid
// model. All methods must be called from process context or engine
// callbacks (single-threaded by construction).
type Resource struct {
	e        *Engine
	name     string
	capacity float64           // peak bytes/sec
	eff      func(int) float64 // usable fraction of capacity given n flows

	flows      []*flow
	lastUpdate Time
	timer      *event

	// rateScale multiplies the usable capacity — the fault-injection
	// hook (degraded link, straggling memory system). Zero means the
	// nominal 1.0; values other than 1 scale every concurrent flow's
	// share for as long as the scale is in force.
	rateScale float64

	// Stats.
	totalBytes float64
	busyTime   Duration // time with >=1 active flow
}

type flow struct {
	remaining float64
	cap       float64 // per-flow rate cap; 0 means uncapped
	rate      float64
	p         *Proc  // blocking caller, or nil
	done      bool   // set when complete (for blocking callers)
	onDone    func() // async completion callback, or nil
}

// NewResource returns a bandwidth server with the given peak capacity in
// bytes per second. A nil eff means eff(n)=1 for all n.
func NewResource(e *Engine, name string, bytesPerSec float64, eff func(n int) float64) *Resource {
	if bytesPerSec <= 0 {
		panic("sim: resource capacity must be positive: " + name)
	}
	return &Resource{e: e, name: name, capacity: bytesPerSec, eff: eff}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the configured peak bandwidth in bytes/sec.
func (r *Resource) Capacity() float64 { return r.capacity }

// RateScale reports the current capacity multiplier (1 when nominal).
func (r *Resource) RateScale() float64 {
	if r.rateScale == 0 {
		return 1
	}
	return r.rateScale
}

// SetRateScale scales the resource's usable capacity by f until the
// next call — the fault-injection hook for degraded links and
// straggling memory systems. In-flight transfers are advanced at the
// old rates first and reallocated at the new ones, so timing stays
// exact for the piecewise-constant fluid model. f must be positive; a
// scale of exactly 1 restores nominal behavior (and, like the zero
// value, keeps the capacity arithmetic byte-identical to an unscaled
// resource).
func (r *Resource) SetRateScale(f float64) {
	if f <= 0 {
		panic("sim: resource " + r.name + " rate scale must be positive")
	}
	if f == r.RateScale() {
		r.rateScale = f
		return
	}
	r.advance()
	r.rateScale = f
	r.reallocate()
}

// TotalBytes reports the cumulative bytes served.
func (r *Resource) TotalBytes() float64 { return r.totalBytes }

// BusyTime reports the cumulative time the resource had work.
func (r *Resource) BusyTime() Duration {
	r.advance()
	return r.busyTime
}

// Utilization reports busy time as a fraction of elapsed simulation time.
func (r *Resource) Utilization() float64 {
	if r.e.now == 0 {
		return 0
	}
	return float64(r.BusyTime()) / float64(r.e.now)
}

// Transfer moves bytes through the resource, blocking the calling process
// until completion. perFlowCap (bytes/sec) limits this flow's share; pass
// 0 for uncapped.
func (r *Resource) Transfer(p *Proc, bytes, perFlowCap float64) {
	if bytes <= 0 {
		return
	}
	f := &flow{remaining: bytes, cap: perFlowCap, p: p}
	r.admit(f)
	for !f.done {
		p.park(parkBlocked)
	}
}

// TransferAsync moves bytes through the resource and invokes onDone (via
// an engine callback) at completion. Used by DMA/NIC engines that overlap
// many outstanding transfers.
func (r *Resource) TransferAsync(bytes, perFlowCap float64, onDone func()) {
	if bytes <= 0 {
		if onDone != nil {
			r.e.At(r.e.now, onDone)
		}
		return
	}
	r.admit(&flow{remaining: bytes, cap: perFlowCap, onDone: onDone})
}

func (r *Resource) usable(n int) float64 {
	c := r.capacity
	// Skip the multiply at nominal scale so unscaled resources keep the
	// exact historical float arithmetic (byte-identity with pre-chaos
	// runs).
	if r.rateScale != 0 && r.rateScale != 1 {
		c *= r.rateScale
	}
	if r.eff != nil {
		f := r.eff(n)
		if f < 0 {
			f = 0
		}
		c *= f
	}
	return c
}

func (r *Resource) admit(f *flow) {
	r.advance()
	r.totalBytes += f.remaining
	r.flows = append(r.flows, f)
	r.reallocate()
}

// advance applies progress since lastUpdate at the current rates and
// completes any finished flows.
func (r *Resource) advance() {
	now := r.e.now
	dt := now.Sub(r.lastUpdate)
	if dt <= 0 {
		r.lastUpdate = now
		return
	}
	if len(r.flows) > 0 {
		r.busyTime += dt
	}
	r.lastUpdate = now
	sec := dt.Seconds()
	live := r.flows[:0]
	for _, f := range r.flows {
		f.remaining -= f.rate * sec
		if f.remaining <= 1e-9 {
			f.remaining = 0
			r.complete(f)
			continue
		}
		live = append(live, f)
	}
	r.flows = live
}

func (r *Resource) complete(f *flow) {
	f.done = true
	if f.p != nil {
		r.e.enqueue(r.e.now, f.p, nil)
	}
	if f.onDone != nil {
		r.e.At(r.e.now, f.onDone)
	}
}

// reallocate recomputes water-filling rates and schedules the next
// completion event.
func (r *Resource) reallocate() {
	if r.timer != nil {
		r.e.cancel(r.timer)
		r.timer = nil
	}
	n := len(r.flows)
	if n == 0 {
		return
	}
	r.waterfill()
	// Next completion.
	min := math.MaxFloat64
	for _, f := range r.flows {
		if f.rate <= 0 {
			continue
		}
		if t := f.remaining / f.rate; t < min {
			min = t
		}
	}
	if min == math.MaxFloat64 {
		// All flows capped at zero — configuration error.
		panic("sim: resource " + r.name + " has flows with zero rate")
	}
	d := DurationOf(min)
	if d < 1 {
		d = 1
	}
	r.timer = r.e.enqueue(r.e.now.Add(d), nil, r.tick)
}

func (r *Resource) tick() {
	r.timer = nil
	r.advance()
	r.reallocate()
}

// Server is an exclusive FIFO service queue with busy-time accounting —
// the contention model for in-order command processors (GPU streams,
// DMA queues): one holder at a time, waiters admitted in arrival order.
// Unlike Resource, which divides bandwidth among concurrent flows, a
// Server serializes its work items outright; the busy-time statistics
// feed per-stream occupancy and overlap reports.
type Server struct {
	e    *Engine
	name string
	sem  *Semaphore

	held      bool
	waiters   int // acquirers queued or holding
	idle      *Cond
	busySince Time
	busyTotal Duration
	// onBusy, when non-nil, observes busy/idle transitions (the hook
	// overlap accounting attaches to).
	onBusy func(busy bool)

	// Queue accounting: how long admitted holders sat waiting behind
	// earlier acquirers (gpu.Stream's MeanWait and QueueWait). No
	// simulation path reads it yet; it is kept as the queueing input of
	// a critical-path attribution that splits makespan into compute,
	// communication and queueing.
	admissions int64
	totalWait  Duration
}

// NewServer returns an idle server bound to e.
func NewServer(e *Engine, name string) *Server {
	return &Server{e: e, name: name, sem: NewSemaphore(e, 1), idle: NewCond(e)}
}

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// OnBusy registers fn to observe busy/idle transitions. fn runs at the
// instant of the transition, before the acquiring (or next queued)
// process resumes.
func (s *Server) OnBusy(fn func(busy bool)) { s.onBusy = fn }

// Held reports whether the server is currently occupied.
func (s *Server) Held() bool { return s.held }

// Acquire takes exclusive hold of the server, blocking in FIFO order
// behind earlier acquirers.
func (s *Server) Acquire(p *Proc) {
	s.waiters++
	enqueued := s.e.now
	s.sem.Acquire(p, 1)
	s.admissions++
	s.totalWait += s.e.now.Sub(enqueued)
	s.held = true
	s.busySince = s.e.now
	if s.onBusy != nil {
		s.onBusy(true)
	}
}

// QueueLen reports the acquirers currently queued behind the holder
// (zero when idle or when the holder runs alone) — the instantaneous
// queue depth the serving layer samples.
func (s *Server) QueueLen() int {
	if s.held {
		return s.waiters - 1
	}
	return s.waiters
}

// Admissions reports how many acquisitions have completed their wait
// (including the current holder, if any).
func (s *Server) Admissions() int64 { return s.admissions }

// TotalWait reports the cumulative time admitted acquirers spent queued
// before taking the server.
func (s *Server) TotalWait() Duration { return s.totalWait }

// MeanWait reports the mean queue wait per admitted acquirer (zero
// before any admission).
func (s *Server) MeanWait() Duration {
	if s.admissions == 0 {
		return 0
	}
	return s.totalWait / Duration(s.admissions)
}

// Release ends the current hold and admits the next waiter.
func (s *Server) Release() {
	if !s.held {
		panic("sim: release of idle server " + s.name)
	}
	s.busyTotal += s.e.now.Sub(s.busySince)
	s.held = false
	s.waiters--
	if s.onBusy != nil {
		s.onBusy(false)
	}
	s.sem.Release(1)
	if s.waiters == 0 {
		s.idle.Broadcast()
	}
}

// WaitIdle blocks p until the server has no holder and no queued
// acquirers — the stream-sync primitive.
func (s *Server) WaitIdle(p *Proc) {
	s.idle.Wait(p, func() bool { return s.waiters == 0 })
}

// BusyTime reports the cumulative held time, including the in-progress
// hold.
func (s *Server) BusyTime() Duration {
	if s.held {
		return s.busyTotal + s.e.now.Sub(s.busySince)
	}
	return s.busyTotal
}

// Utilization reports busy time as a fraction of elapsed simulation time.
func (s *Server) Utilization() float64 {
	if s.e.now == 0 {
		return 0
	}
	return float64(s.BusyTime()) / float64(s.e.now)
}

// waterfill assigns rates: capped flows below the fair share get their
// cap; the surplus is redistributed among the rest.
func (r *Resource) waterfill() {
	n := len(r.flows)
	total := r.usable(n)
	// Fast path: uniform uncapped or generous caps.
	share := total / float64(n)
	allAbove := true
	for _, f := range r.flows {
		if f.cap > 0 && f.cap < share {
			allAbove = false
			break
		}
	}
	if allAbove {
		for _, f := range r.flows {
			f.rate = share
		}
		return
	}
	// General water-filling: sort by cap ascending, satisfy small caps,
	// split the remainder.
	sorted := make([]*flow, n)
	copy(sorted, r.flows)
	sort.SliceStable(sorted, func(i, j int) bool {
		ci, cj := sorted[i].cap, sorted[j].cap
		if ci == 0 {
			ci = math.MaxFloat64
		}
		if cj == 0 {
			cj = math.MaxFloat64
		}
		return ci < cj
	})
	remainingCap := total
	remainingFlows := n
	for _, f := range sorted {
		fair := remainingCap / float64(remainingFlows)
		if f.cap > 0 && f.cap < fair {
			f.rate = f.cap
		} else {
			f.rate = fair
		}
		remainingCap -= f.rate
		remainingFlows--
	}
}
