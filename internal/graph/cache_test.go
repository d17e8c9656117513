package graph

import (
	"reflect"
	"sync"
	"testing"

	"fusedcc/internal/core"
	"fusedcc/internal/platform"
	"fusedcc/internal/sim"
)

// cacheTestGraph builds the three-pattern graph on a fresh engine —
// each call models one sweep point's independent instantiation of the
// same workload.
func cacheTestGraph(t *testing.T) (*platform.Platform, *Graph) {
	t.Helper()
	pl, w := testWorld(t, 1, 4)
	g := New(w, allPEs(pl), core.DefaultConfig())
	buildTriple(t, g, 4)
	return pl, g
}

func TestFingerprintStableAcrossEngines(t *testing.T) {
	_, g1 := cacheTestGraph(t)
	_, g2 := cacheTestGraph(t)
	f1, f2 := fingerprint(g1), fingerprint(g2)
	if f1 != f2 {
		t.Fatalf("structurally identical graphs fingerprint differently:\n%s\nvs\n%s", f1, f2)
	}
	// A structural edit must change the fingerprint.
	g2.PerRank("extra", func(p *sim.Proc, rank, pe int) {})
	if fingerprint(g2) == f1 {
		t.Fatal("fingerprint unchanged after adding a node")
	}
}

func TestPassCacheSharesSelectPlans(t *testing.T) {
	cache := NewPassCache()
	pl1, g1 := cacheTestGraph(t)
	pl2, g2 := cacheTestGraph(t)

	x1 := Executor{Cache: cache}
	x2 := Executor{Cache: cache}
	var rep1, rep2 *Report
	drive(pl1, func(p *sim.Proc) { rep1 = x1.Execute(p, g1, Auto) })
	drive(pl2, func(p *sim.Proc) { rep2 = x2.Execute(p, g2, Auto) })

	hits, misses := cache.Stats()
	if misses != 1 || hits != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 1 hit, 1 miss", hits, misses)
	}
	if !reflect.DeepEqual(rep1.Select, rep2.Select) {
		t.Errorf("replayed select report differs:\n%+v\nvs\n%+v", rep1.Select, rep2.Select)
	}
	if rep1.Duration() != rep2.Duration() {
		t.Errorf("cached-plan run duration %v != fresh run %v", rep2.Duration(), rep1.Duration())
	}

	// The cached plan must reproduce exactly what an uncached pass does.
	pl3, g3 := cacheTestGraph(t)
	var x3 Executor // no cache
	var rep3 *Report
	drive(pl3, func(p *sim.Proc) { rep3 = x3.Execute(p, g3, Auto) })
	if !reflect.DeepEqual(rep2.Select, rep3.Select) {
		t.Errorf("cache-on select report differs from cache-off:\n%+v\nvs\n%+v", rep2.Select, rep3.Select)
	}
	if rep2.Duration() != rep3.Duration() {
		t.Errorf("cache-on duration %v != cache-off %v", rep2.Duration(), rep3.Duration())
	}
}

func TestPassCacheSharesPartitionPlans(t *testing.T) {
	cache := NewPassCache()
	for _, mode := range []Mode{Pipelined, Wavefront} {
		var durs []sim.Duration
		for i := 0; i < 2; i++ {
			pl, g := cacheTestGraph(t)
			x := Executor{Cache: cache, Chunks: 4}
			var rep *Report
			drive(pl, func(p *sim.Proc) { rep = x.Execute(p, g, mode) })
			durs = append(durs, rep.Duration())
			if got := len(rep.Partition.Splits); got == 0 {
				t.Fatalf("%v run split nothing", mode)
			}
		}
		if durs[0] != durs[1] {
			t.Errorf("%v: cached-plan duration %v != fresh %v", mode, durs[1], durs[0])
		}
	}
	hits, misses := cache.Stats()
	// One miss + one hit per mode (pipelined and wavefront key separately).
	if misses != 2 || hits != 2 {
		t.Errorf("stats = %d hits, %d misses; want 2 hits, 2 misses", hits, misses)
	}
}

func TestPassCacheDistinguishesChunkCounts(t *testing.T) {
	cache := NewPassCache()
	for _, k := range []int{2, 4} {
		pl, g := cacheTestGraph(t)
		x := Executor{Cache: cache, Chunks: k}
		drive(pl, func(p *sim.Proc) { x.Execute(p, g, Pipelined) })
	}
	hits, misses := cache.Stats()
	if hits != 0 || misses != 2 {
		t.Errorf("different chunk counts shared a plan: %d hits, %d misses", hits, misses)
	}
}

// TestPassCacheConcurrent exercises the sweep-worker shape: independent
// engines running the same workload through one shared cache from
// multiple goroutines. Run under -race this is the cache's concurrency
// regression test.
func TestPassCacheConcurrent(t *testing.T) {
	cache := NewPassCache()
	const workers = 4
	// Warm the cache serially so every concurrent worker exercises the
	// hit path deterministically (racing cold workers may all miss).
	var warm sim.Duration
	{
		pl, g := cacheTestGraph(t)
		x := Executor{Cache: cache}
		drive(pl, func(p *sim.Proc) { warm = x.Execute(p, g, Auto).Duration() })
	}
	durs := make([]sim.Duration, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		//detlint:allow rawgo -- host-side concurrency: each worker drives its own engine; the -race run is the point
		go func() {
			defer wg.Done()
			pl, g := cacheTestGraph(t)
			x := Executor{Cache: cache}
			var rep *Report
			drive(pl, func(p *sim.Proc) { rep = x.Execute(p, g, Auto) })
			durs[i] = rep.Duration()
		}()
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if durs[i] != warm {
			t.Fatalf("worker %d duration %v != warmup %v", i, durs[i], warm)
		}
	}
	hits, misses := cache.Stats()
	if misses != 1 || hits != workers {
		t.Errorf("stats = %d hits, %d misses; want %d hits, 1 miss", hits, misses, workers)
	}
}

// TestExecutorMemoAcrossModes pins the executor's single lowering memo:
// once every mode has run on a graph, alternating modes again never
// re-plans (no PassCache traffic) and returns the same pass reports,
// and changing Load touches only Auto's entry.
func TestExecutorMemoAcrossModes(t *testing.T) {
	pl, g := cacheTestGraph(t)
	x := Executor{Chunks: 2, Cache: NewPassCache()}
	modes := []Mode{Compiled, Pipelined, Wavefront, Auto}
	run := func() []*Report {
		var reps []*Report
		drive(pl, func(p *sim.Proc) {
			for _, m := range modes {
				if m == Compiled {
					// Non-Auto forms must not key on Load.
					x.Load = LoadContext{QueueDepth: 3}
				}
				if m == Auto {
					x.Load = LoadContext{}
				}
				reps = append(reps, x.Execute(p, g, m))
			}
		})
		return reps
	}
	first := run()
	h0, m0 := x.Cache.Stats()
	if h0 != 0 || m0 != 3 {
		t.Fatalf("first round stats = %d hits, %d misses; want 0 hits, 3 misses", h0, m0)
	}
	second := run()
	if h, m := x.Cache.Stats(); h != h0 || m != m0 {
		t.Errorf("second round re-planned: stats %d hits, %d misses, want %d, %d", h, m, h0, m0)
	}
	for i, m := range modes {
		a, b := first[i], second[i]
		if a.Compile != b.Compile || a.Partition != b.Partition || a.Select != b.Select {
			t.Errorf("%v: second round returned different pass reports", m)
		}
		if len(a.Nodes) != len(b.Nodes) {
			t.Fatalf("%v: %d nodes, then %d", m, len(a.Nodes), len(b.Nodes))
		}
		for j := range a.Nodes {
			if a.Nodes[j].Name != b.Nodes[j].Name || a.Nodes[j].Op != b.Nodes[j].Op {
				t.Errorf("%v: node %d is %s/%s, then %s/%s", m, j, a.Nodes[j].Name, a.Nodes[j].Op, b.Nodes[j].Name, b.Nodes[j].Op)
			}
		}
	}
	// A Load change does re-plan Auto.
	x.Load = LoadContext{QueueDepth: 3}
	drive(pl, func(p *sim.Proc) { x.Execute(p, g, Auto) })
	if _, m := x.Cache.Stats(); m != m0+1 {
		t.Errorf("Auto under a new load: %d misses, want %d", m, m0+1)
	}
}
