// The serving experiment (id "serving") puts the execution modes under
// the load the paper's target workloads actually run with: an open-loop
// Poisson request stream continuously batched into in-flight stack
// executions. Per sweep point it serves the same arrival stream twice —
// once on the idle-machine Auto plan (the offline selection CoCoNet and
// GC3 perform) and once on the load-aware plan (Select re-priced with
// the observed queue depth) — and reports where the choices flip and
// what the flip buys in tail latency.
//
// This file also holds the one serving harness both this experiment and
// the chaos experiment run on: servePass serves a stream on a fresh
// world with a fault plan armed, and the serving sweep is its
// empty-plan case.
package experiments

import (
	"errors"
	"fmt"
	"math"

	"fusedcc/internal/chaos"
	"fusedcc/internal/gpu"
	"fusedcc/internal/graph"
	"fusedcc/internal/serve"
	"fusedcc/internal/sim"
	"fusedcc/internal/sweep"
)

const (
	// servingInFlight is the number of serving slots: concurrent stack
	// executions in flight, each on its own stack instance (operators
	// are not reentrant) but sharing one world, so they contend for the
	// same per-GPU streams and links.
	servingInFlight = 2
	// servingMaxBatch caps the requests one batched stack step carries:
	// a step's cost is the stack makespan regardless of batch size, so
	// batching amortizes it across up to this many requests.
	servingMaxBatch = 4
	// servingSeed is the base arrival seed; each sweep point offsets it
	// by its index so points draw independent streams while staying
	// byte-identical across worker counts.
	servingSeed = 1
	// servingSLOFactor sets the goodput SLO at this multiple of the
	// config's idle stack makespan.
	servingSLOFactor = 8
	// depthSeries names the queue-depth series an online arm smooths.
	depthSeries = "queue-depth"
)

// armSpec names one serving policy: the mode every slot steps in, and
// whether the slots re-select online from observed load and health.
type armSpec struct {
	name   string
	mode   graph.Mode
	online bool
}

// stackSlot adapts a case stack to a fault-aware serving slot: it
// checks participant liveness around each step, and — on an online
// arm — closes a sampling window and re-prices the plan from observed
// queue depth and degradation before stepping.
type stackSlot struct {
	r      stackRunner
	x      *graph.Executor
	mode   graph.Mode
	pes    []int
	health *chaos.Health
	// detect is the timeout a step burns before reporting a dead rank —
	// the RPC-timeout detection delay.
	detect sim.Duration

	online  bool
	sampler *chaos.Sampler
	depth   *serve.Monitor
	rate    float64

	choices   string
	reselects int
}

func (b *stackSlot) Step(p *sim.Proc, batch []*serve.Request) { _ = b.StepErr(p, batch) }

func (b *stackSlot) StepErr(p *sim.Proc, batch []*serve.Request) error {
	if rank, since, dead := b.health.AnyDead(b.pes); dead {
		// The collective times out against the dead rank: the step burns
		// the detection delay, then fails without doing work.
		p.Sleep(b.detect)
		return &chaos.RankDeadError{Rank: rank, Since: since}
	}
	if b.online {
		b.sampler.Sample()
		// The smoothed depth is quantized to whole requests so steady
		// load prices steadily (and hits the selection cache) instead of
		// re-selecting per wiggle.
		load := graph.LoadContext{
			QueueDepth:  math.Round(b.depth.Slowdown(depthSeries)),
			ArrivalRate: b.rate,
			Degrade:     b.sampler.Degrade(),
		}
		if load != b.x.Load {
			b.x.Load = load
		}
	}
	rep := b.r.StepReport(p, b.mode)
	if rep.Select != nil {
		c := summarizeDecisions(rep.Select)
		if b.choices != "" && c != b.choices {
			b.reselects++
		}
		b.choices = c
	}
	if rank, since, dead := b.health.AnyDead(b.pes); dead {
		// The rank died mid-step: the simulated work completed, but its
		// results are void — work lost at failure; the batch retries.
		return &chaos.RankDeadError{Rank: rank, Since: since}
	}
	return nil
}

// passSpec specifies one serving pass.
type passSpec struct {
	sc                  stackCase
	nodes, gpus, layers int
	arm                 armSpec
	plan                chaos.Plan
	// load is every slot's initial plan pricing — all a static arm
	// ever uses.
	load   graph.LoadContext
	rate   float64
	detect sim.Duration
}

// armResult is one completed serving pass: request statistics, the
// plan it executed under, and the fault handling and (online)
// re-selection telemetry.
type armResult struct {
	name      string
	stats     *serve.Stats
	choices   string
	load      graph.LoadContext
	reselects int
	degrade   graph.DegradeContext
	rebuilt   int
	survivors int
	monitor   string
	// computeOcc/commOcc are mean per-GPU stream occupancies over the
	// whole pass — how loaded each stream class actually was, summed
	// across in-flight slots.
	computeOcc, commOcc float64
}

func (a armResult) p99() sim.Duration { return a.stats.Latency.P99 }

// servePass runs one serving pass on a fresh world with the fault plan
// armed (an empty plan arms nothing): servingInFlight fault-aware slots
// share the world and the sweep pass cache, the dropped-rank rebuild
// hook re-shards onto survivors when the case supports it, and an
// online arm feeds the smoothed queue depth and sampled degradation
// into selection.
func servePass(ps passSpec, arrivals serve.Arrivals, cfg serve.Config, opt Options) (armResult, error) {
	pl, w := clusterWorldOpt(ps.nodes, ps.gpus, opt)
	inj, err := chaos.Arm(pl, ps.plan)
	if err != nil {
		return armResult{}, err
	}
	var sampler *chaos.Sampler
	var depth *serve.Monitor
	if ps.arm.online {
		sampler = chaos.NewSampler(pl, chaosAlpha, chaosThreshold)
		depth = serve.NewMonitor(chaosAlpha)
		cfg.Probe = func(_ sim.Time, d int) { depth.Observe(depthSeries, float64(d)) }
	}
	pes := allPEs(pl)
	newSlot := func(r stackRunner, ranks []int, load graph.LoadContext) *stackSlot {
		x := r.Executor()
		x.Streams = true
		x.Cache = opt.Cache
		x.Load = load
		return &stackSlot{
			r: r, x: x, mode: ps.arm.mode, pes: ranks,
			health: inj.Health, detect: ps.detect,
			online: ps.arm.online, sampler: sampler, depth: depth, rate: ps.rate,
		}
	}
	slots := make([]serve.Backend, servingInFlight)
	backends := make([]*stackSlot, servingInFlight)
	for i := range slots {
		r, err := ps.sc.build(w, pes, ps.layers)
		if err != nil {
			return armResult{}, fmt.Errorf("%s on %dx%d: %w", ps.sc.name, ps.nodes, ps.gpus, err)
		}
		backends[i] = newSlot(r, pes, ps.load)
		slots[i] = backends[i]
	}
	arm := armResult{name: ps.arm.name, load: ps.load, survivors: len(pes)}
	cfg.MaxBatch = servingMaxBatch
	cfg.Rebuild = func(slot int, err error) serve.Backend {
		var rde *chaos.RankDeadError
		if !errors.As(err, &rde) || ps.sc.reshard == nil {
			return nil
		}
		survivors := inj.Health.Survivors(pes)
		if len(survivors) == 0 || len(survivors) == len(backends[slot].pes) {
			return nil // nothing new to exclude
		}
		r, rerr := ps.sc.reshard(w, survivors, ps.layers, len(pes))
		if rerr != nil {
			return nil // cannot re-shard: keep shedding via retries/drops
		}
		nb := newSlot(r, survivors, backends[slot].x.Load)
		nb.choices, nb.reselects = backends[slot].choices, backends[slot].reselects
		backends[slot] = nb
		arm.rebuilt++
		arm.survivors = len(survivors)
		return nb
	}
	arm.stats = serve.Run(pl.E, arrivals, slots, cfg)
	arm.choices = backends[0].choices
	for _, b := range backends {
		arm.reselects += b.reselects
	}
	if sampler != nil {
		arm.degrade = sampler.Degrade()
		arm.monitor = sampler.Monitor().String()
	}
	// Occupancy reads the shared devices' cumulative stream busy time
	// (the world is fresh, so the counters cover exactly this pass) —
	// per-step executor reports can't be summed here, since overlapping
	// slots share the streams and would double-count each other.
	if st := arm.stats; st.Makespan > 0 && len(pl.Devices()) > 0 {
		var comp, comm sim.Duration
		for _, dev := range pl.Devices() {
			comp += dev.StreamBusy(gpu.StreamCompute)
			comm += dev.StreamBusy(gpu.StreamComm)
		}
		span := float64(st.Makespan) * float64(len(pl.Devices()))
		arm.computeOcc = float64(comp) / span
		arm.commOcc = float64(comm) / span
	}
	return arm, nil
}

// servingOutcome is one completed sweep point: both arms at one offered
// load.
type servingOutcome struct {
	label        string
	qps          float64
	idle, loaded armResult
	// flip: the load-aware plan chose differently; win: and its p99 is
	// strictly lower — the acceptance condition of load-aware selection.
	flip, win bool
	err       error
}

// servingPointRun serves one (case, shape, load) point twice with no
// faults: first on the idle-machine plan (zero LoadContext — exactly
// what Select always chose), then on the load-aware plan re-priced with
// the queue depth the idle pass observed. Both arms replay the same
// arrivals, so the comparison isolates the plan. cal is the config's
// idle Auto makespan, the unit of the goodput SLO; cfg bounds the run.
func servingPointRun(sc stackCase, nodes, gpus, layers int, label string, cal sim.Duration,
	rate float64, arrivals func() serve.Arrivals, cfg serve.Config, opt Options) servingOutcome {
	out := servingOutcome{label: label, qps: rate}
	cfg.SLO = servingSLOFactor * cal
	ps := passSpec{
		sc: sc, nodes: nodes, gpus: gpus, layers: layers,
		arm: armSpec{"idle", graph.Auto, false}, rate: rate,
	}
	var err error
	if out.idle, err = servePass(ps, arrivals(), cfg, opt); err != nil {
		out.err = err
		return out
	}
	// The observed mean queue depth is the pricing multiplier: an
	// execution that holds its bottleneck stream for D delays every
	// request queued behind it by ~D, so loaded cost charges demand once
	// per queued request.
	ps.arm.name = "load-aware"
	ps.load = graph.LoadContext{QueueDepth: out.idle.stats.MeanDepth, ArrivalRate: rate}
	if out.loaded, err = servePass(ps, arrivals(), cfg, opt); err != nil {
		out.err = err
		return out
	}
	out.flip = out.loaded.choices != out.idle.choices
	out.win = out.flip && out.loaded.p99() < out.idle.p99()
	return out
}

// servingNote renders one sweep point's comparison line.
func servingNote(o servingOutcome) string {
	verdict := "same plan"
	if o.flip {
		verdict = "FLIP"
		if o.win {
			verdict = "FLIP, p99 win"
		}
	}
	return fmt.Sprintf(
		"%s (%.0f req/s): idle plan [%s] p99 %v, goodput %.0f/s, mean depth %.2f, streams %.0f%%c+%.0f%%m; "+
			"load-aware (depth %.2f) [%s] p99 %v (%+.1f%%), goodput %.0f/s, streams %.0f%%c+%.0f%%m [%s]",
		o.label, o.qps,
		o.idle.choices, o.idle.p99(), o.idle.stats.Goodput, o.idle.stats.MeanDepth,
		100*o.idle.computeOcc, 100*o.idle.commOcc,
		o.loaded.load.QueueDepth, o.loaded.choices, o.loaded.p99(),
		100*(float64(o.loaded.p99())/float64(o.idle.p99())-1),
		o.loaded.stats.Goodput, 100*o.loaded.computeOcc, 100*o.loaded.commOcc, verdict)
}

// Serving runs the QPS sweep (experiment id "serving"): every case
// stack at each shape, offered load stepped through multiples of the
// config's own saturation rate. Rows pair the idle-machine plan's p99
// (baseline) against the load-aware plan's p99 at the same offered
// load; notes carry both plans' choices, goodput, queue depths, and the
// per-config crossover point — the lowest rate at which the load-aware
// choice departs from the idle one and wins on tail latency.
func Serving(opt Options) *Result {
	shapes := [][2]int{{1, 8}, {8, 1}}
	mults := []float64{0.5, 2, 4}
	if opt.Quick {
		shapes = [][2]int{{1, 8}}
		mults = []float64{0.5, 4}
	}
	const layers = 2
	opt = opt.withCache()
	cases := pipelineCases(opt.Quick)
	if opt.Quick {
		// Quick serves the decoder stack only: every request is a full
		// stack execution, so the dlrm/moe arms dominate host time (their
		// steps simulate 5-16ms of cluster activity each) while the
		// decoder already exhibits the load-aware crossover the sweep
		// exists to show. The full sweep serves all three cases.
		cases = cases[:1]
	}

	type point struct {
		sc          stackCase
		nodes, gpus int
		mult        float64
		seed        int64
	}
	var points []point
	for _, sc := range cases {
		for _, sh := range shapes {
			for _, m := range mults {
				points = append(points, point{sc, sh[0], sh[1], m, servingSeed + int64(len(points))})
			}
		}
	}
	outs := sweep.Map(opt.Parallel, len(points), func(i int) servingOutcome {
		pt := points[i]
		label := fmt.Sprintf("%s %dx%d x%.2f", pt.sc.name, pt.nodes, pt.gpus, pt.mult)
		// Calibrate the offered rate to this config's own idle Auto
		// makespan: mult 1.0 offers servingMaxBatch requests per idle step
		// time — the saturation knee of a single fully-batched slot.
		cal, err := runStack(pt.sc, pt.nodes, pt.gpus, layers, 2, graph.Auto, opt)
		if err != nil {
			return servingOutcome{label: label, err: err}
		}
		requests := 64
		if opt.Quick {
			requests = 48
		}
		// Underloaded points drain in near-singleton batches, so each
		// request is a full stack execution; they only need to show the
		// queue stays shallow and the plan stays put. Overloaded points
		// keep the full count — the flip depends on the backlog they
		// build.
		if pt.mult < 1 {
			requests /= 3
			if opt.Quick {
				requests = 8
			}
		}
		qps := pt.mult * servingMaxBatch / cal.dur.Seconds()
		arrivals := func() serve.Arrivals { return serve.Poisson(qps, pt.seed, pt.sc.name) }
		return servingPointRun(pt.sc, pt.nodes, pt.gpus, layers, label, cal.dur, qps, arrivals,
			serve.Config{Requests: requests}, opt)
	})

	res := &Result{
		ID:    "Serving",
		Title: "idle-machine vs load-aware Auto plans under open-loop request streams (p99 at equal offered load)",
	}
	// crossover[config] is the lowest multiplier whose point flipped and
	// won; points arrive in multiplier order within each config.
	crossover := map[string]float64{}
	var order []string
	flips, wins := 0, 0
	for i, o := range outs {
		if o.err != nil {
			panic(o.err) // sweep shapes are fixed and valid
		}
		res.Rows = append(res.Rows, Row{Label: o.label, Baseline: o.idle.p99(), Fused: o.loaded.p99()})
		res.Notes = append(res.Notes, servingNote(o))
		if o.flip {
			flips++
		}
		if o.win {
			wins++
			pt := points[i]
			cfgKey := fmt.Sprintf("%s %dx%d", pt.sc.name, pt.nodes, pt.gpus)
			if _, seen := crossover[cfgKey]; !seen {
				crossover[cfgKey] = pt.mult
				order = append(order, cfgKey)
			}
		}
	}
	for _, cfgKey := range order {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: load-aware selection crosses over at x%.2f offered load (flip with lower p99)",
			cfgKey, crossover[cfgKey]))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"load-aware selection changed the plan on %d/%d points, winning on p99 at %d",
		flips, len(outs), wins))
	return res
}

// ServingPoint serves the three case stacks at one shape and one
// offered load — the engine behind fusionbench's -mode serve. The load
// comes from -qps (Poisson at the given rate, bounded by requests or by
// the horizon) or from a trace file replayed verbatim. Rows pair the
// idle-machine plan's p99 against the load-aware plan's, exactly as one
// sweep point of Serving.
func ServingPoint(nodes, gpus, layers int, qps float64, requests int,
	horizon sim.Duration, tracePath string, seed int64, opt Options) (*Result, error) {
	if err := validShape(nodes, gpus); err != nil {
		return nil, err
	}
	if layers < 1 {
		return nil, fmt.Errorf("experiments: need layers >= 1, got %d", layers)
	}
	if tracePath == "" && qps <= 0 {
		return nil, fmt.Errorf("experiments: serving needs -qps > 0 or a -trace file")
	}
	if tracePath == "" && requests <= 0 && horizon <= 0 {
		return nil, fmt.Errorf("experiments: serving needs a -requests or -duration bound")
	}
	// A trace is read once and shared read-only by every case and arm;
	// its offered rate is its arrival count over its span.
	var tr *serve.Trace
	if tracePath != "" {
		var err error
		if tr, err = serve.LoadTrace(tracePath); err != nil {
			return nil, err
		}
		qps = float64(len(tr.At))
		if span := tr.At[len(tr.At)-1].Seconds(); span > 0 {
			qps /= span
		}
	}
	opt = opt.withCache()
	label := fmt.Sprintf("%dx%d L%d", nodes, gpus, layers)
	res := &Result{
		ID:    "Serving" + label,
		Title: fmt.Sprintf("idle-machine vs load-aware Auto plans under request load (%s)", label),
	}
	cases := pipelineCases(opt.Quick)
	outs := sweep.Map(opt.Parallel, len(cases), func(i int) servingOutcome {
		sc := cases[i]
		cal, err := runStack(sc, nodes, gpus, layers, 2, graph.Auto, opt)
		if err != nil {
			return servingOutcome{err: err}
		}
		// Poisson streams are stateful: each arm draws a fresh one.
		arrivals := func() serve.Arrivals { return serve.Poisson(qps, seed, sc.name) }
		cfg := serve.Config{Requests: requests, Horizon: horizon}
		if tr != nil {
			arrivals, cfg = func() serve.Arrivals { return tr }, serve.Config{Requests: len(tr.At)}
		}
		return servingPointRun(sc, nodes, gpus, layers, sc.name+" "+label, cal.dur, qps, arrivals, cfg, opt)
	})
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		res.Rows = append(res.Rows, Row{Label: o.label, Baseline: o.idle.p99(), Fused: o.loaded.p99()})
		res.Notes = append(res.Notes, servingNote(o))
	}
	return res, nil
}
