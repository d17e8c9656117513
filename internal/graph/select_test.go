package graph

import (
	"strings"
	"testing"

	"fusedcc/internal/core"
	"fusedcc/internal/sim"
)

// fakeEstimator is a deterministic cost surface for decide tests.
type fakeEstimator struct {
	compute, collective sim.Duration // per full phase; chunks split evenly
	chunkDiscount       sim.Duration // saved per non-head collective chunk
	fused               sim.Duration
	maxChunks, satur    int
}

func (f fakeEstimator) EstimateComputeChunk(c, n int) sim.Duration {
	return f.compute / sim.Duration(n)
}

func (f fakeEstimator) EstimateCollectiveChunk(c, n int) sim.Duration {
	t := f.collective / sim.Duration(n)
	if c > 0 {
		t -= f.chunkDiscount
	}
	return t
}

func (f fakeEstimator) EstimateFused() sim.Duration { return f.fused }
func (f fakeEstimator) MaxChunks() int              { return f.maxChunks }
func (f fakeEstimator) SaturationChunks() int       { return f.satur }

func TestDecidePicksCheapestForm(t *testing.T) {
	cases := []struct {
		name       string
		est        fakeEstimator
		wantChoice Mode
		wantChunks int
	}{
		{
			// Fused is far below compute+collective and any pipeline.
			name:       "fused wins",
			est:        fakeEstimator{compute: 100, collective: 100, fused: 50, maxChunks: 8, satur: 8},
			wantChoice: Compiled,
		},
		{
			// Perfect overlap halves the collective exposure; fused is
			// priced out.
			name:       "pipeline wins",
			est:        fakeEstimator{compute: 100, collective: 100, chunkDiscount: 2, fused: 500, maxChunks: 8, satur: 8},
			wantChoice: Pipelined,
		},
		{
			// Nothing can beat the serial sum: fusion too expensive, no
			// chunking granularity.
			name:       "eager wins",
			est:        fakeEstimator{compute: 100, collective: 100, fused: 500, maxChunks: 1, satur: 8},
			wantChoice: Eager,
			wantChunks: 1,
		},
		{
			// Saturation clamp: only K=2 is admissible even though the
			// operator could split 8 ways.
			name:       "saturation clamps K",
			est:        fakeEstimator{compute: 100, collective: 100, chunkDiscount: 2, fused: 500, maxChunks: 8, satur: 2},
			wantChoice: Pipelined,
			wantChunks: 2,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			d := decide(tc.est, LoadContext{})
			if d.Choice != tc.wantChoice {
				t.Fatalf("choice = %v, want %v (decision %+v)", d.Choice, tc.wantChoice, d)
			}
			if tc.wantChunks != 0 && d.Chunks != tc.wantChunks {
				t.Errorf("chunks = %d, want %d", d.Chunks, tc.wantChunks)
			}
			if d.Choice == Pipelined && d.Chunks < 2 {
				t.Errorf("pipelined decision with K=%d", d.Chunks)
			}
			if d.EagerCost != tc.est.compute+tc.est.collective {
				t.Errorf("eager cost = %v", d.EagerCost)
			}
			if got := d.Predicted(); got <= 0 {
				t.Errorf("Predicted() = %v", got)
			}
		})
	}
}

// TestDecideLoadedFlipsFromFused pins the contention-aware pricing: a
// surface where the fused form is latency-best but demand-worst (the
// persistent kernel occupies the compute stream for its whole duration,
// while pipelining splits the same work across both streams) must pick
// fused on an idle machine and flip to pipelined once queue depth
// enters the price.
func TestDecideLoadedFlipsFromFused(t *testing.T) {
	est := fakeEstimator{compute: 800, collective: 800, fused: 890, maxChunks: 8, satur: 8}
	idle := decide(est, LoadContext{})
	if idle.Choice != Compiled {
		t.Fatalf("idle choice = %v, want compiled (decision %+v)", idle.Choice, idle)
	}
	if idle.Demand != idle.FusedCost {
		t.Errorf("fused demand = %v, want the whole fused duration %v", idle.Demand, idle.FusedCost)
	}
	loaded := decide(est, LoadContext{QueueDepth: 1, ArrivalRate: 1000})
	if loaded.Choice != Pipelined {
		t.Fatalf("loaded choice = %v, want pipelined (decision %+v)", loaded.Choice, loaded)
	}
	if loaded.Demand >= idle.Demand {
		t.Errorf("loaded demand %v not below fused demand %v", loaded.Demand, idle.Demand)
	}
	// The load moves only the choice; the per-form latencies are
	// machine properties and must not change.
	if loaded.EagerCost != idle.EagerCost || loaded.FusedCost != idle.FusedCost {
		t.Errorf("loaded pricing changed form costs: %+v vs %+v", loaded, idle)
	}
}

func TestDecideDemandPerForm(t *testing.T) {
	// Eager chosen: demand is the busier phase, not the serial sum.
	eag := decide(fakeEstimator{compute: 300, collective: 100, fused: 900, maxChunks: 1, satur: 8}, LoadContext{})
	if eag.Choice != Eager || eag.Demand != 300 {
		t.Errorf("eager decision %+v, want demand 300", eag)
	}
	// Pipelined chosen: demand is the busier stream's summed chunk work.
	pip := decide(fakeEstimator{compute: 800, collective: 400, chunkDiscount: 10, fused: 5000, maxChunks: 8, satur: 8}, LoadContext{})
	if pip.Choice != Pipelined {
		t.Fatalf("decision %+v, want pipelined", pip)
	}
	if pip.Demand != 800 {
		t.Errorf("pipelined demand = %v, want compute-stream total 800", pip.Demand)
	}
}

func TestSelectLoadedReportCarriesLoad(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	sp, _, _ := testSpecs(4)
	v := mustValue(t)(g.GEMVFromSpec("mv", sp))
	if _, err := g.AllReduce("ar", v); err != nil {
		t.Fatal(err)
	}
	load := LoadContext{QueueDepth: 2, ArrivalRate: 5000}
	_, rep := SelectLoaded(g, load)
	if rep.Load != load {
		t.Errorf("report load = %+v, want %+v", rep.Load, load)
	}
	if !strings.Contains(rep.String(), "load:") {
		t.Errorf("report rendering misses load line: %q", rep.String())
	}
	if (LoadContext{}).key() != "idle" || load.key() == (LoadContext{}).key() {
		t.Errorf("load keys alias: %q vs %q", load.key(), (LoadContext{}).key())
	}
}

// TestPassCacheSelectKeysOnLoad guards against plan aliasing: the same
// graph priced under different contention must occupy distinct cache
// entries.
func TestPassCacheSelectKeysOnLoad(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	sp, _, _ := testSpecs(4)
	v := mustValue(t)(g.GEMVFromSpec("mv", sp))
	if _, err := g.AllReduce("ar", v); err != nil {
		t.Fatal(err)
	}
	c := NewPassCache()
	p1 := c.planFor(g, policy{mode: Auto, load: LoadContext{}})
	p2 := c.planFor(g, policy{mode: Auto, load: LoadContext{QueueDepth: 3}})
	if p1 == p2 {
		t.Error("plans aliased across load contexts")
	}
	if h, m := c.Stats(); h != 0 || m != 2 {
		t.Errorf("stats = %d hits, %d misses, want 0 hits, 2 misses", h, m)
	}
	if p3 := c.planFor(g, policy{mode: Auto, load: LoadContext{QueueDepth: 3}}); p3 != p2 {
		t.Error("repeat loaded lookup missed the cache")
	}
}

// TestSelectMixedModeBitExact runs Auto on the three-pattern graph over
// the paper's shapes: whatever mix of {fused, pipelined@K, eager} the
// cost model picks, the functional outputs must match eager exactly,
// and the report must carry one decision per pair.
func TestSelectMixedModeBitExact(t *testing.T) {
	shapes := []struct {
		name        string
		nodes, gpus int
	}{
		{"scale-up-1x8", 1, 8},
		{"scale-out-8x1", 8, 1},
		{"hybrid-2x4", 2, 4},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			pl, w := testWorld(t, sh.nodes, sh.gpus)
			k := sh.nodes * sh.gpus
			g := New(w, allPEs(pl), core.DefaultConfig())
			gemv, emb, gemm := buildTriple(t, g, k)
			vals := []struct {
				name string
				v    Value
			}{{"gemv", gemv}, {"emb", emb}, {"gemm", gemm}}

			var eager, auto *Report
			snapshot := map[string][][]float32{}
			drive(pl, func(p *sim.Proc) {
				eager = Run(p, g, Eager)
				for _, nv := range vals {
					name, v := nv.name, nv.v
					for _, pe := range g.PEs() {
						snapshot[name] = append(snapshot[name], append([]float32(nil), v.Symm().On(pe).Data()...))
					}
				}
				auto = Run(p, g, Auto)
			})
			if auto.Select == nil || len(auto.Select.Decisions) != 3 {
				t.Fatalf("select report = %+v, want 3 decisions", auto.Select)
			}
			for _, d := range auto.Select.Decisions {
				if d.EagerCost <= 0 || d.FusedCost <= 0 {
					t.Errorf("decision %+v missing predicted costs", d)
				}
			}
			if !strings.Contains(auto.Select.String(), "pair decision") {
				t.Errorf("report rendering: %q", auto.Select.String())
			}
			for _, nv := range vals {
				name, v := nv.name, nv.v
				for i, pe := range g.PEs() {
					got := v.Symm().On(pe).Data()
					want := snapshot[name][i]
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("%s pe %d elem %d: auto %g != eager %g", name, pe, j, got[j], want[j])
						}
					}
				}
			}
			if len(auto.Streams) != k {
				t.Errorf("auto run not stream-aware: %d stream reports, want %d", len(auto.Streams), k)
			}
			if eager.Duration() <= 0 || auto.Duration() <= 0 {
				t.Error("zero-duration runs")
			}
		})
	}
}

// TestSelectEmitsMixedForms pins the emission shapes: a graph whose
// pairs receive different decisions must contain the fused node, the
// chunk chains, and the untouched eager pair side by side.
func TestSelectEmitsMixedForms(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	sp, esp, _ := testSpecs(4)
	v := mustValue(t)(g.GEMVFromSpec("mv", sp))
	if _, err := g.AllReduce("ar", v); err != nil {
		t.Fatal(err)
	}
	ev := mustValue(t)(g.EmbeddingBagFromSpec("pool", esp))
	if _, err := g.AllToAll("a2a", ev); err != nil {
		t.Fatal(err)
	}

	sg, rep := Select(g)
	if len(rep.Decisions) != 2 {
		t.Fatalf("decisions = %+v", rep.Decisions)
	}
	for _, d := range rep.Decisions {
		var wantNodes []string
		switch d.Choice {
		case Compiled:
			wantNodes = []string{d.Compute + "+" + d.Collective}
		case Pipelined:
			for c := 0; c < d.Chunks; c++ {
				wantNodes = append(wantNodes,
					d.Compute+"#"+string(rune('0'+c)),
					d.Collective+"#"+string(rune('0'+c)))
			}
		default:
			wantNodes = []string{d.Compute, d.Collective}
		}
		for _, name := range wantNodes {
			if sg.Node(name) == nil {
				t.Errorf("decision %v: node %q missing from selected graph", d, name)
			}
		}
	}
	if g.Node("mv") == nil || len(g.Nodes()) != 4 {
		t.Error("input graph was mutated")
	}
}

func TestExecutorSelectCacheKeysOnGen(t *testing.T) {
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	sp, _, _ := testSpecs(4)
	v := mustValue(t)(g.GEMVFromSpec("mv", sp))
	if _, err := g.AllReduce("ar", v); err != nil {
		t.Fatal(err)
	}
	var x Executor
	drive(pl, func(p *sim.Proc) {
		first := x.Execute(p, g, Auto)
		if len(first.Select.Decisions) != 1 {
			t.Fatalf("first run decisions = %+v", first.Select)
		}
		// A same-count dependency edit makes the pair unselectable; a
		// stale cache would still rewrite it.
		probe := g.PerRank("probe", func(p *sim.Proc, rank, pe int) {})
		g.AddDep(probe.Producer(), v)
		second := x.Execute(p, g, Auto)
		if len(second.Select.Decisions) != 0 {
			t.Errorf("stale select cache served after dependency edit: %+v", second.Select)
		}
	})
}

// TestSummaryPreservesPESkew is the regression test for the Summary
// flattening bug: per-PE completion times must come from each PE's last
// node, not be overwritten with the graph-final end time.
func TestSummaryPreservesPESkew(t *testing.T) {
	pl, w := testWorld(t, 1, 2)
	g := New(w, allPEs(pl), core.DefaultConfig())
	g.PerRank("skewed", func(p *sim.Proc, rank, pe int) {
		p.Sleep(sim.Duration(100 * (rank + 1)))
	})
	var rep *Report
	drive(pl, func(p *sim.Proc) { rep = Run(p, g, Eager) })
	sum := rep.Summary(2)
	if len(sum.PEEnd) != 2 {
		t.Fatalf("PEEnd = %v", sum.PEEnd)
	}
	if sum.PEEnd[0] >= sum.PEEnd[1] {
		t.Fatalf("PEEnd %v: rank 0 (100ns) must finish before rank 1 (200ns)", sum.PEEnd)
	}
	if sum.PEEnd[1] != sum.End {
		t.Errorf("slowest PE end %v != graph end %v", sum.PEEnd[1], sum.End)
	}
	if sum.Skew() <= 0 {
		t.Error("per-PE skew flattened to zero")
	}
}
