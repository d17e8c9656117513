package main

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"fusedcc"
	"fusedcc/internal/chaos"
	"fusedcc/internal/dlrm"
	"fusedcc/internal/graph"
	"fusedcc/internal/serve"
	"fusedcc/internal/sim"
)

const (
	// serveNodes is the 8x1 scale-out shape: every collective crosses
	// the NICs.
	serveNodes = 8
	// serveInFlight slots share one world, so in-flight steps contend
	// for the same streams and links.
	serveInFlight = 2
	// serveMaxBatch caps the requests one continuously batched step
	// carries.
	serveMaxBatch = 4
	// serveRequests is the open-loop stream length: enough completions
	// that at least ten lie beyond the p99.
	serveRequests = 1100
	// serveLoad is the offered rate as a share of the idle saturation
	// knee, serveMaxBatch requests per idle Auto step: below the knee,
	// so the healthy backlog stays bounded.
	serveLoad = 0.5
	// serveSLOFactor sets the goodput SLO at this multiple of the idle
	// Auto step.
	serveSLOFactor = 8

	// The fault workload's health monitor and serving policy: EWMA
	// weight and detection threshold of the degradation sampler,
	// bounded retries with a backoff and failure-detection delay of a
	// quarter step, and an admission deadline at four SLOs.
	faultAlpha          = 0.4
	faultThreshold      = 1.5
	faultMaxRetries     = 3
	faultDeadlineFactor = 4 * serveSLOFactor
)

// faultPlan is one slow-NIC window and one dropped rank, timed in idle
// steps (cal) so they strike inside the stream: the NIC window covers
// the first quarter of the expected span, the rank drops at its middle.
// Targets are drawn from the seed.
func faultPlan(cal sim.Duration) chaos.Plan {
	span := sim.Duration(float64(serveRequests) / (serveLoad * serveMaxBatch) * float64(cal))
	return chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.SlowLink, Target: -1, Factor: 2, Start: span / 8, For: span / 4},
		{Kind: chaos.DropRank, Target: -1, Start: span / 2},
	}}
}

// depthEWMA smooths the queue depth the serving loop probes, rounded
// to whole requests so a steady load prices one plan.
type depthEWMA struct {
	alpha, v float64
	seen     bool
}

func (d *depthEWMA) observe(_ sim.Time, depth int) {
	if !d.seen {
		d.v, d.seen = float64(depth), true
		return
	}
	d.v += d.alpha * (float64(depth) - d.v)
}

func (d *depthEWMA) value() float64 { return math.Round(d.v) }

// slotTotals accumulates what every slot's steps reported.
type slotTotals struct {
	steps, requests int
	reselects       int
	rebuilds        int
	maxDegradeComm  float64
	layer           map[string]float64
}

// dlrmSlot is one serving slot: a DLRM stack stepped in load-aware Auto
// mode. On the fault workload it also checks rank liveness around each
// step and re-prices the plan from the sampler's observed degradation.
type dlrmSlot struct {
	m       *dlrm.Model
	x       *fusedcc.GraphExecutor
	pes     []int
	depth   *depthEWMA
	rate    float64
	health  *chaos.Health
	sampler *chaos.Sampler
	detect  sim.Duration
	choices string
	tot     *slotTotals
}

func (s *dlrmSlot) Step(p *sim.Proc, batch []*serve.Request) { _ = s.StepErr(p, batch) }

func (s *dlrmSlot) StepErr(p *sim.Proc, batch []*serve.Request) error {
	s.tot.steps++
	s.tot.requests += len(batch)
	if s.health != nil {
		if rank, since, dead := s.health.AnyDead(s.pes); dead {
			// The collective times out against the dead rank.
			p.Sleep(s.detect)
			return &chaos.RankDeadError{Rank: rank, Since: since}
		}
	}
	load := graph.LoadContext{QueueDepth: s.depth.value(), ArrivalRate: s.rate}
	if s.sampler != nil {
		s.sampler.Sample()
		load.Degrade = s.sampler.Degrade()
		s.tot.maxDegradeComm = math.Max(s.tot.maxDegradeComm, load.Degrade.Comm)
	}
	s.x.Load = load
	rep := s.m.StepReport(p, fusedcc.Auto)
	addNodeCounters(s.tot.layer, rep)
	if rep.Select != nil {
		c := choiceKey(rep.Select)
		if s.choices != "" && c != s.choices {
			s.tot.reselects++
		}
		s.choices = c
	}
	if s.health != nil {
		if rank, since, dead := s.health.AnyDead(s.pes); dead {
			// The rank died mid-step: the work is void and the batch retries.
			return &chaos.RankDeadError{Rank: rank, Since: since}
		}
	}
	return nil
}

// choiceKey condenses a select report's per-pair choices.
func choiceKey(sel *fusedcc.SelectReport) string {
	parts := make([]string, 0, len(sel.Decisions)+1)
	for _, d := range sel.Decisions {
		parts = append(parts, d.ChoiceString())
	}
	parts = append(parts, fmt.Sprintf("wf%d", len(sel.Wavefronts)))
	return strings.Join(parts, ",")
}

// idleStep runs one step of a fresh DLRM in mode on a fresh 8x1 world:
// the calibration that fixes the offered rate and the SLO.
func idleStep(cfg dlrm.Config, mode fusedcc.ExecMode) (*fusedcc.GraphReport, error) {
	sys, err := fusedcc.NewCluster(serveNodes, 1, fusedcc.Options{})
	if err != nil {
		return nil, err
	}
	m, err := sys.NewDLRM(cfg, fusedcc.DefaultOperatorConfig())
	if err != nil {
		return nil, err
	}
	m.Executor().Streams = true
	var rep *fusedcc.GraphReport
	sys.Run(func(p *fusedcc.Proc) { rep = m.StepReport(p, mode) })
	return rep, nil
}

// reshardDLRM rebuilds the DLRM on the surviving ranks: the lost rank's
// tables spread over the survivors and the global batch shrinks to the
// largest size the embedding all-to-all still shards evenly.
func reshardDLRM(w *fusedcc.System, cfg dlrm.Config, survivors []int) (*dlrm.Model, error) {
	total := cfg.TablesPerGPU * serveNodes
	cfg.TablesPerGPU = (total + len(survivors) - 1) / len(survivors)
	unit := len(survivors) * cfg.SliceRows
	cfg.GlobalBatch = cfg.GlobalBatch / unit * unit
	if cfg.GlobalBatch == 0 {
		return nil, fmt.Errorf("dlrm: no valid batch for %d survivors", len(survivors))
	}
	return dlrm.New(w.World, survivors, cfg, fusedcc.DefaultOperatorConfig())
}

// prepareServe returns the set-up of one serve-dlrm pass, or of one
// serve-dlrm-faults pass when faults is set: calibrate on fresh worlds,
// then build the shared serving world, its slots and (faults) the armed
// fault plan and degradation sampler.
func prepareServe(faults bool) func(seed int64, tr *tracer, parent int) (*prepared, error) {
	return func(seed int64, tr *tracer, parent int) (*prepared, error) {
		cfg := servingDLRMConfig(seed)
		sp := tr.begin("calibrate", parent)
		autoRep, err := idleStep(cfg, fusedcc.Auto)
		if err != nil {
			return nil, err
		}
		fusedRep, err := idleStep(cfg, fusedcc.Compiled)
		if err != nil {
			return nil, err
		}
		tr.end(sp)
		cal := autoRep.Duration()
		rate := serveLoad * serveMaxBatch / cal.Seconds()

		sys, err := fusedcc.NewCluster(serveNodes, 1, fusedcc.Options{})
		if err != nil {
			return nil, err
		}
		pes := sys.PEs()
		cache := graph.NewPassCache()
		depth := &depthEWMA{alpha: faultAlpha}
		tot := &slotTotals{layer: map[string]float64{}}
		var (
			plan    chaos.Plan
			inj     *chaos.Injector
			sampler *chaos.Sampler
		)
		if faults {
			plan = faultPlan(cal).Draw(seed, serveNodes, serveNodes)
			if inj, err = chaos.Arm(sys.Platform, plan); err != nil {
				return nil, err
			}
			sampler = chaos.NewSampler(sys.Platform, faultAlpha, faultThreshold)
		}
		newSlot := func(m *dlrm.Model, ranks []int) *dlrmSlot {
			x := m.Executor()
			x.Streams = true
			x.Cache = cache
			s := &dlrmSlot{m: m, x: x, pes: ranks, depth: depth, rate: rate, sampler: sampler, detect: cal / 4, tot: tot}
			if inj != nil {
				s.health = inj.Health
			}
			return s
		}
		slots := make([]serve.Backend, serveInFlight)
		live := make([]*dlrmSlot, serveInFlight)
		for i := range slots {
			m, err := sys.NewDLRM(cfg, fusedcc.DefaultOperatorConfig())
			if err != nil {
				return nil, err
			}
			live[i] = newSlot(m, pes)
			slots[i] = live[i]
		}
		scfg := serve.Config{
			MaxBatch: serveMaxBatch,
			Requests: serveRequests,
			SLO:      serveSLOFactor * cal,
			Probe:    depth.observe,
		}
		if faults {
			scfg.Deadline = faultDeadlineFactor * cal
			scfg.MaxRetries = faultMaxRetries
			scfg.RetryBackoff = cal / 4
			scfg.Rebuild = func(slot int, err error) serve.Backend {
				var rde *chaos.RankDeadError
				if !errors.As(err, &rde) {
					return nil
				}
				survivors := inj.Health.Survivors(pes)
				if len(survivors) == 0 || len(survivors) == len(live[slot].pes) {
					return nil
				}
				m, rerr := reshardDLRM(sys, cfg, survivors)
				if rerr != nil {
					// No valid re-shard: the slot keeps failing, and its
					// requests drain as retries and drops (failed ops).
					return nil
				}
				nb := newSlot(m, survivors)
				nb.choices = live[slot].choices
				live[slot] = nb
				tot.rebuilds++
				return nb
			}
		}
		arrivals := serve.Poisson(rate, seed, "dlrm")
		run := func(tr *tracer, parent int) passResult {
			sp := tr.begin("serve.Run", parent)
			st := serve.Run(sys.Engine, arrivals, slots, scfg)
			tr.end(sp)
			for _, r := range st.Requests {
				tr.request(sp, r)
			}
			return servePass(st, sys, plan, tot, cache, autoRep, fusedRep)
		}
		return &prepared{run: run, graphs: []*fusedcc.Graph{live[0].m.ForwardGraph()}}, nil
	}
}

// servePass checks one serving run's request log and derives its
// simulated metrics and per-layer counters.
func servePass(st *serve.Stats, sys *fusedcc.System, plan chaos.Plan, tot *slotTotals,
	cache *graph.PassCache, autoRep, fusedRep *fusedcc.GraphReport) passResult {
	out := passResult{ops: st.Generated, failed: st.Drops, steps: tot.steps, layer: tot.layer}
	if st.Generated != serveRequests {
		out.errs = append(out.errs, fmt.Sprintf("generated %d requests, want %d", st.Generated, serveRequests))
	}
	if st.Generated != st.Completed+st.Drops {
		out.errs = append(out.errs, fmt.Sprintf("generated %d != completed %d + dropped %d", st.Generated, st.Completed, st.Drops))
	}
	for _, r := range st.Requests {
		if r.Arrival > r.Admit || r.Admit > r.Done {
			out.errs = append(out.errs, fmt.Sprintf("request %d: arrival %v, admit %v, done %v out of order", r.ID, r.Arrival, r.Admit, r.Done))
		}
	}
	for _, r := range st.Dropped {
		if r.Arrival > r.Admit {
			out.errs = append(out.errs, fmt.Sprintf("dropped request %d: arrival %v after admit %v", r.ID, r.Arrival, r.Admit))
		}
	}
	out.failed += len(out.errs)

	out.sim = map[string]float64{
		"sim_fused_us":    fusedRep.Duration().Seconds() * 1e6,
		"sim_auto_us":     autoRep.Duration().Seconds() * 1e6,
		"sim_p50_us":      st.Latency.P50.Seconds() * 1e6,
		"sim_p99_us":      st.Latency.P99.Seconds() * 1e6,
		"sim_goodput_rps": st.Goodput,
	}
	l := out.layer
	l["sim.samples"] = float64(st.Completed)
	l["serve.batches"] = float64(st.Batches)
	if tot.steps > 0 {
		l["serve.mean_batch"] = float64(tot.requests) / float64(tot.steps)
	}
	l["serve.wait_p99_us"] = st.Wait.P99.Seconds() * 1e6
	l["serve.service_p99_us"] = st.Service.P99.Seconds() * 1e6
	l["serve.mean_depth"] = st.MeanDepth
	l["serve.max_depth"] = float64(st.MaxDepth)
	l["serve.retries"] = float64(st.Retries)
	l["serve.drops"] = float64(st.Drops)
	l["chaos.reselects"] = float64(tot.reselects)
	l["chaos.rebuilds"] = float64(tot.rebuilds)
	l["chaos.max_degrade_comm"] = tot.maxDegradeComm
	for _, f := range plan.Faults {
		if f.Start <= st.Makespan {
			l["chaos.faults_fired"]++
		}
	}
	devs := sys.Platform.Devices()
	l["gpu.compute_busy_share"], l["gpu.comm_busy_share"] = streamShares(devs, st.Makespan.Seconds())
	for _, d := range devs {
		l["gpu.hbm_util"] += d.HBM().Utilization() / float64(len(devs))
	}
	b, u, n := networkCounters(sys.Platform.Network())
	l["netsim.nic_mb"] = b / 1e6
	if n > 0 {
		l["netsim.nic_util"] = u / n
	}
	h, m := cache.Stats()
	l["graph.cache_hits"], l["graph.cache_misses"] = float64(h), float64(m)
	if d := autoRep.Duration().Seconds(); d > 0 && autoRep.Select != nil {
		l["graph.plan_error_pct"] = 100 * math.Abs(autoRep.Select.PredictedTotal().Seconds()-d) / d
	}
	l["graph.overlap_eff"] = autoRep.OverlapEfficiency()
	return out
}
