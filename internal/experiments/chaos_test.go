package experiments

import (
	"reflect"
	"testing"

	"fusedcc/internal/graph"
	"fusedcc/internal/serve"
	"fusedcc/internal/sim"
)

// chaosDlrmOnly is the reduced case set the determinism tests sweep:
// the dlrm points carry the whole fault matrix (including the re-shard
// path) at a fraction of the decoder points' host cost.
func chaosDlrmOnly(t *testing.T) []stackCase {
	t.Helper()
	sc := pipelineCases(true)[1]
	if sc.name != "dlrm" {
		t.Fatalf("quick case 1 is %q, want dlrm", sc.name)
	}
	return []stackCase{sc}
}

// TestChaosZeroFaultMatchesServing is the no-regression acceptance
// check: the fault-aware serving path with an empty plan — health
// checks, deadline config, retry config all armed but never firing —
// must replay the plain serving engine byte-for-byte. The reference
// side is built here from plain (non-Fallible) backends stepping the
// same stack in Auto, so the harness is checked against serve.Run
// itself rather than against another of its own passes.
func TestChaosZeroFaultMatchesServing(t *testing.T) {
	parallelUnlessRace(t)
	const nodes, gpus, layers = 4, 1, 2
	const seed = 42
	opt := Options{Quick: true, Parallel: 1}.withCache()
	sc := chaosDlrmOnly(t)[0]
	cal, err := runStack(sc, nodes, gpus, layers, 2, graph.Auto, opt)
	if err != nil {
		t.Fatal(err)
	}
	qps := 0.7 * servingMaxBatch / cal.dur.Seconds()
	cfg := serve.Config{Requests: 8, SLO: servingSLOFactor * cal.dur}

	pl, w := clusterWorldOpt(nodes, gpus, opt)
	var baseChoices string
	slots := make([]serve.Backend, servingInFlight)
	for i := range slots {
		r, err := sc.build(w, allPEs(pl), layers)
		if err != nil {
			t.Fatal(err)
		}
		x := r.Executor()
		x.Streams = true
		x.Cache = opt.Cache
		first := i == 0
		slots[i] = serve.BackendFunc(func(p *sim.Proc, _ []*serve.Request) {
			if rep := r.StepReport(p, graph.Auto); first && baseChoices == "" && rep.Select != nil {
				baseChoices = summarizeDecisions(rep.Select)
			}
		})
	}
	baseCfg := cfg
	baseCfg.MaxBatch = servingMaxBatch
	base := serve.Run(pl.E, serve.Poisson(qps, seed, sc.name), slots, baseCfg)

	cfg.Deadline = chaosDeadlineFactor * cal.dur
	cfg.MaxRetries = chaosMaxRetries
	cfg.RetryBackoff = cal.dur / 4
	ps := passSpec{
		sc: sc, nodes: nodes, gpus: gpus, layers: layers,
		arm: armSpec{"auto", graph.Auto, false}, rate: qps, detect: cal.dur / 4,
	}
	arm, err := servePass(ps, serve.Poisson(qps, seed, sc.name), cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if arm.stats.Drops != 0 || arm.stats.Retries != 0 {
		t.Fatalf("zero-fault run shed work: %d drops, %d retries", arm.stats.Drops, arm.stats.Retries)
	}
	if !reflect.DeepEqual(base, arm.stats) {
		t.Errorf("zero-fault chaos serving diverged from the plain serving engine:\nserving: %v\nchaos:   %v",
			base, arm.stats)
	}
	if arm.choices != baseChoices {
		t.Errorf("plans differ: serving [%s], chaos [%s]", baseChoices, arm.choices)
	}
}

// TestChaosDeterminismMatrix asserts the sweep invariant under fault
// injection: every outcome — request timestamps, drawn fault targets,
// retry counts, re-shard telemetry — is identical whether points run
// serially or on a worker pool, on a serial engine or a sharded one.
func TestChaosDeterminismMatrix(t *testing.T) {
	if raceEnabled {
		t.Skip("full sweep runs are too heavy under the race detector; the fault path is race-covered by the serve and chaos package tests")
	}
	t.Parallel()
	cases := chaosDlrmOnly(t)
	run := func(par, shards int) []chaosOutcome {
		return chaosSweepOutcomes(cases, 4, 1, 2, 0.7,
			Options{Quick: true, Parallel: par, SimShards: shards}.withCache())
	}
	base := run(1, 0)
	for _, o := range base {
		if o.err != nil {
			t.Fatal(o.err)
		}
	}
	// The worker-pool and sharded-engine axes are checked independently;
	// their composition rides in CI's chaos job (-simshards 8 CLI
	// byte-identity), so the in-package matrix stays two runs deep.
	configs := []struct {
		name        string
		par, shards int
	}{
		{"workers4", 4, 0},
		{"simshards8", 1, 8},
	}
	if testing.Short() {
		configs = configs[:1]
	}
	for _, tc := range configs {
		if got := run(tc.par, tc.shards); !reflect.DeepEqual(base, got) {
			t.Errorf("%s: chaos sweep diverged from the serial unsharded run:\nserial: %+v\n%s: %+v",
				tc.name, base, tc.name, got)
		}
	}
}

// TestChaosDropRankReshardsAndDrains is the no-wedge acceptance check:
// a dropped rank must re-shard the dlrm stack onto the survivors and
// the run must drain — every generated request either served or
// deliberately dropped, on every arm.
func TestChaosDropRankReshardsAndDrains(t *testing.T) {
	parallelUnlessRace(t)
	const nodes, gpus, layers = 4, 1, 2
	opt := Options{Quick: true, Parallel: 1}.withCache()
	sc := chaosDlrmOnly(t)[0]
	cal, err := runStack(sc, nodes, gpus, layers, 2, graph.Auto, opt)
	if err != nil {
		t.Fatal(err)
	}
	var plan chaosScenario
	for _, s := range chaosScenarios(cal.dur) {
		if s.name == "drop-rank" {
			plan = s
		}
	}
	if plan.name == "" {
		t.Fatal("no drop-rank scenario")
	}
	out := chaosPointRun(sc, nodes, gpus, layers, plan.name, plan.name, plan.plan, chaosSeed,
		cal.dur, 0.7*servingMaxBatch/cal.dur.Seconds(), serve.Config{Requests: 16}, opt)
	if out.err != nil {
		t.Fatal(out.err)
	}
	for _, a := range out.arms {
		if a.stats.Completed+a.stats.Drops != a.stats.Generated {
			t.Errorf("%s wedged: %d generated, %d completed, %d dropped",
				a.name, a.stats.Generated, a.stats.Completed, a.stats.Drops)
		}
		if a.stats.Completed == 0 {
			t.Errorf("%s served nothing", a.name)
		}
		if a.rebuilt == 0 || a.survivors != nodes*gpus-1 {
			t.Errorf("%s did not re-shard: %d rebuilds, %d survivors", a.name, a.rebuilt, a.survivors)
		}
	}
}
