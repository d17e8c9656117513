package main

import (
	"fmt"
	"math"
	"time"

	"fusedcc/internal/astra"
)

// astraShards is the conservative sharded engine's shard count for the
// 128-node replay.
const astraShards = 2

// prepareAstra calibrates the Table II 128-node torus DLRM replay. Every
// iteration builds its own sharded world, so passes reuse one set-up.
// The replay has no generated inputs: the seed changes nothing.
func prepareAstra(_ int64, _ *tracer, _ int) (*prepared, error) {
	s, err := astra.New(astra.DefaultSystem(), astra.DefaultModel())
	if err != nil {
		return nil, err
	}
	return &prepared{
		run:      func(tr *tracer, parent int) passResult { return runAstra(s, tr, parent) },
		reusable: true,
		check: func(first passResult) []string {
			// The sharded replay must reproduce the serial engine exactly.
			var errs []string
			for _, c := range []struct {
				fused bool
				key   string
			}{{false, "astra.baseline_iter_us"}, {true, "sim_fused_us"}} {
				serial := s.TrainIterationOpt(c.fused, 1).Total.Seconds() * 1e6
				got := first.layer[c.key]
				if c.fused {
					got = first.sim[c.key]
				}
				if serial != got {
					errs = append(errs, fmt.Sprintf("astra fused=%v: %d-shard iteration %vus != serial %vus", c.fused, astraShards, got, serial))
				}
			}
			return errs
		},
	}, nil
}

// runAstra replays one baseline and one fused training iteration.
//
//detlint:allow wallclock -- host time per iteration, a per-layer host metric
func runAstra(s *astra.Simulator, tr *tracer, parent int) passResult {
	out := passResult{ops: 2, steps: 2, layer: map[string]float64{}}
	var iters [2]astra.Result
	var host float64
	for i, fused := range []bool{false, true} {
		sp := tr.begin(fmt.Sprintf("astra.TrainIterationOpt/fused=%v", fused), parent)
		t0 := time.Now()
		iters[i] = s.TrainIterationOpt(fused, astraShards)
		host += time.Since(t0).Seconds()
		tr.end(sp)
		if iters[i].Total <= 0 {
			out.failed++
			out.errs = append(out.errs, fmt.Sprintf("astra fused=%v: empty iteration", fused))
		}
	}
	base, fused := iters[0].Total.Seconds()*1e6, iters[1].Total.Seconds()*1e6
	out.sim = map[string]float64{
		"sim_fused_us":    fused,
		"sim_auto_us":     math.Min(base, fused),
		"sim_p50_us":      percentile([]float64{base, fused}, 50),
		"sim_p99_us":      percentile([]float64{base, fused}, 99),
		"sim_goodput_rps": 2 / ((base + fused) / 1e6),
	}
	out.layer["sim.samples"] = 2
	out.layer["astra.baseline_iter_us"] = base
	out.layer["astra.iter_host_s"] = host / 2
	out.layer["astra.shards"] = float64(iters[1].Shards)
	return out
}
