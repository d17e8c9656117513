package experiments

import (
	"reflect"
	"testing"

	"fusedcc/internal/graph"
)

// TestSweepDeterminismMatrix asserts the parallel runner's core
// invariant on the pipeline, auto, and wavefront BENCH sweeps: every
// row, makespan, and note a sweep produces is identical whether points
// run serially or on a worker pool — parallelism may only change
// wall-clock time. The serving sweep gets the same serial-vs-parallel
// check in TestServingLoadAwareCrossover (serving_test.go), folded into
// its acceptance test so the package runs the sweep only twice. The
// serial arm comes from quickSerialResult, shared with the shape tests,
// so each sweep here costs one worker-pool run. Pipeline always runs;
// the heavier auto and wavefront sweeps are skipped in -short runs.
func TestSweepDeterminismMatrix(t *testing.T) {
	if raceEnabled {
		t.Skip("full quick sweeps are too heavy under the race detector; the parallel runner is race-covered by TestParallelRunnerSharedCacheRace")
	}
	t.Parallel()
	sweeps := []struct {
		name string
		run  func(Options) *Result
	}{
		{"pipeline", Pipeline},
		{"auto", Auto},
		{"wavefront", Wavefront},
	}
	for _, sw := range sweeps {
		if sw.name != "pipeline" && testing.Short() {
			t.Logf("skipping %s in -short", sw.name)
			continue
		}
		sw := sw
		t.Run(sw.name, func(t *testing.T) {
			t.Parallel()
			serial := quickSerialResult(sw.name, sw.run)
			parallel := sw.run(Options{Quick: true, Parallel: 4})
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("serial and parallel %s sweeps differ:\nserial:\n%v\nparallel:\n%v", sw.name, serial, parallel)
			}
		})
	}
}

// TestParallelRunnerSharedCacheRace drives the parallel job runner and
// a shared pass cache from concurrent workers at one sweep point —
// sized for the race detector, which is the point: run under -race
// this is the sweep runner's concurrency regression test.
func TestParallelRunnerSharedCacheRace(t *testing.T) {
	parallelUnlessRace(t)
	serial, err := PipelinePoint(1, 4, 2, 2, graph.Auto, Options{Quick: true, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache := graph.NewPassCache()
	parallel, err := PipelinePoint(1, 4, 2, 2, graph.Auto, Options{Quick: true, Parallel: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel point differs from serial:\nserial:\n%v\nparallel:\n%v", serial, parallel)
	}
	if hits, misses := cache.Stats(); hits+misses == 0 {
		t.Error("shared cache was never consulted")
	}
}
