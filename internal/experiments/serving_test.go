package experiments

import (
	"reflect"
	"strings"
	"testing"

	"fusedcc/internal/sweep"
)

// TestServingLoadAwareCrossover is the PR's acceptance criterion plus
// the sweep-runner determinism check in one pass (the quick serving
// sweep is expensive — every request is a full stack execution — so
// this test runs it exactly twice instead of joining the three-run
// determinism matrix): (1) serial and 4-worker runs must be deeply
// equal — seeded Poisson arrivals are drawn per point from
// workload.Rand, so worker count cannot perturb them; (2) the sweep
// must contain at least one point where the load-aware Auto plan
// differs from the idle-machine plan AND serves a lower p99 at the
// same offered load, with a crossover note saying so. The sweep is
// fully deterministic, so these are exact checks, not statistical
// ones.
func TestServingLoadAwareCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("serving sweep is seconds-to-minutes; skipped in -short")
	}
	if raceEnabled {
		t.Skip("quick serving sweep is too heavy under the race detector; serve's concurrency is race-covered by its own package tests")
	}
	t.Parallel()
	// The serial and worker-pool sweeps share nothing, so they run side
	// by side.
	runs := sweep.Map(2, 2, func(i int) *Result {
		return Serving(Options{Quick: true, Parallel: []int{1, 4}[i]})
	})
	res, parallel := runs[0], runs[1]
	if !reflect.DeepEqual(res, parallel) {
		t.Errorf("serial and parallel serving sweeps differ:\nserial:\n%v\nparallel:\n%v", res, parallel)
	}
	if len(res.Rows) == 0 {
		t.Fatal("serving sweep produced no rows")
	}
	if len(res.Notes) != len(res.Rows)+2 { // per-point + >=1 crossover + summary
		t.Fatalf("expected %d notes (per-point + crossover + summary), got %d:\n%s",
			len(res.Rows)+2, len(res.Notes), strings.Join(res.Notes, "\n"))
	}
	wins := 0
	for i, n := range res.Notes[:len(res.Rows)] {
		if strings.Contains(n, "FLIP, p99 win") {
			wins++
			r := res.Rows[i]
			if r.Fused >= r.Baseline {
				t.Errorf("row %q marked p99 win but loaded %v >= idle %v", r.Label, r.Fused, r.Baseline)
			}
		}
	}
	if wins == 0 {
		t.Fatalf("no point where the load-aware plan flipped and won on p99:\n%s",
			strings.Join(res.Notes, "\n"))
	}
	var crossed bool
	for _, n := range res.Notes[len(res.Rows):] {
		if strings.Contains(n, "crosses over at") {
			crossed = true
		}
	}
	if !crossed {
		t.Errorf("no crossover note despite %d winning flips:\n%s", wins,
			strings.Join(res.Notes, "\n"))
	}
}

// TestServingPointValidation covers the error paths of the CLI entry
// points ServingPoint and ChaosPoint; their happy paths run as
// fusionbench -mode serve / -mode chaos smokes in CI's chaos job.
func TestServingPointValidation(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
	}{
		{"bad shape", func() error {
			_, err := ServingPoint(0, 8, 2, 1000, 8, 0, "", 1, Options{Quick: true})
			return err
		}},
		{"bad layers", func() error {
			_, err := ServingPoint(1, 8, 0, 1000, 8, 0, "", 1, Options{Quick: true})
			return err
		}},
		{"no rate or trace", func() error {
			_, err := ServingPoint(1, 8, 2, 0, 8, 0, "", 1, Options{Quick: true})
			return err
		}},
		{"no bound", func() error {
			_, err := ServingPoint(1, 8, 2, 1000, 0, 0, "", 1, Options{Quick: true})
			return err
		}},
		{"missing trace", func() error {
			_, err := ServingPoint(1, 8, 2, 0, 0, 0, "/nonexistent/trace.txt", 1, Options{Quick: true})
			return err
		}},
		{"chaos bad shape", func() error {
			_, err := ChaosPoint(0, 8, 2, "", 1000, 8, 1, Options{Quick: true})
			return err
		}},
		{"chaos bad layers", func() error {
			_, err := ChaosPoint(4, 1, 0, "", 1000, 8, 1, Options{Quick: true})
			return err
		}},
		{"chaos malformed spec", func() error {
			_, err := ChaosPoint(4, 1, 2, "bogus@1", 1000, 8, 1, Options{Quick: true})
			return err
		}},
		{"chaos NaN factor", func() error {
			_, err := ChaosPoint(4, 1, 2, "slowlink@0,xNaN", 1000, 8, 1, Options{Quick: true})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}
