package core

import (
	"fmt"
	"testing"

	"fusedcc/internal/kernels"
	"fusedcc/internal/platform"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

// pinned is one operator's exact timing-mode outcome: the fused and
// baseline makespans plus the fused run's remote traffic counters.
type pinned struct {
	fused, base sim.Duration
	puts        int
	bytes       float64
}

// timingWorld builds testPlatform's cluster in timing mode.
func timingWorld(e *sim.Engine, nodes, gpn int) (*platform.Platform, *shmem.World) {
	cfg := testConfig(nodes, gpn)
	cfg.GPU.Functional = false
	pl, err := platform.New(e, cfg)
	if err != nil {
		panic(err)
	}
	return pl, shmem.NewWorld(pl, shmem.DefaultConfig())
}

// pinBuild builds one operator on a fresh timing-mode world and returns
// its fused and baseline entry points.
type pinBuild func(t *testing.T, pl *platform.Platform, w *shmem.World) (fused, base func(*sim.Proc) Report)

func pinEmbedding(disableZeroCopy bool) pinBuild {
	return func(t *testing.T, pl *platform.Platform, w *shmem.World) (func(*sim.Proc) Report, func(*sim.Proc) Report) {
		pes := pesOf(pl)
		cfg := DefaultConfig()
		cfg.DisableZeroCopy = disableZeroCopy
		op, err := NewEmbeddingAllToAll(w, pes, buildEmbedding(pl, pes, 4, 64, 16, 64, 4), 64, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return op.RunFused, op.RunBaseline
	}
}

var pinOps = []struct {
	name  string
	build pinBuild
}{
	{"emb", pinEmbedding(false)},
	{"emb-nozc", pinEmbedding(true)},
	{"gemv", func(t *testing.T, pl *platform.Platform, w *shmem.World) (func(*sim.Proc) Report, func(*sim.Proc) Report) {
		pes := pesOf(pl)
		gemvs := make([]*kernels.GEMV, len(pes))
		for s, pe := range pes {
			dev := pl.Device(pe)
			gemvs[s] = &kernels.GEMV{M: 512, K: 64, TileM: 16,
				W: dev.Alloc(512 * 64), X: dev.Alloc(64), Y: dev.Alloc(512)}
		}
		op, err := NewGEMVAllReduce(w, pes, gemvs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return op.RunFused, op.RunBaseline
	}},
	{"gemm", func(t *testing.T, pl *platform.Platform, w *shmem.World) (func(*sim.Proc) Report, func(*sim.Proc) Report) {
		pes := pesOf(pl)
		m := 32 * len(pes)
		gemms := make([]*kernels.GEMM, len(pes))
		for s, pe := range pes {
			dev := pl.Device(pe)
			gemms[s] = &kernels.GEMM{M: m, N: 64, K: 32, TileM: 16, TileN: 16,
				A: dev.Alloc(m * 32), B: dev.Alloc(32 * 64), C: dev.Alloc(m * 64)}
		}
		op, err := NewGEMMAllToAll(w, pes, gemms, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return op.RunFused, op.RunBaseline
	}},
	{"embgrad", func(t *testing.T, pl *platform.Platform, w *shmem.World) (func(*sim.Proc) Report, func(*sim.Proc) Report) {
		pes := pesOf(pl)
		fwd, err := NewEmbeddingAllToAll(w, pes, buildEmbedding(pl, pes, 4, 64, 16, 64, 4), 64, 8, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		g := NewEmbeddingGradExchange(fwd)
		return g.RunFused, g.RunBaseline
	}},
}

// makespanPins holds every operator's exact timing-mode outcome per
// cluster shape. A change to the communication paths (shmem, fabric,
// netsim channels) that is meant to keep simulated time must leave all
// of them untouched; update a pin only for an intended model change.
var makespanPins = map[string]pinned{
	"emb/1x4":      {fused: 15880, base: 71094, puts: 768, bytes: 49152},
	"emb/2x1":      {fused: 24676, base: 74834, puts: 32, bytes: 16384},
	"emb/2x2":      {fused: 22911, base: 82310, puts: 320, bytes: 49152},
	"emb-nozc/1x4": {fused: 19513, base: 71094, puts: 96, bytes: 49152},
	"gemv/1x4":     {fused: 17940, base: 35824, puts: 96, bytes: 12288},
	"gemv/2x1":     {fused: 37430, base: 39336, puts: 32, bytes: 4096},
	"gemv/2x2":     {fused: 32216, base: 81040, puts: 96, bytes: 12288},
	"gemm/1x4":     {fused: 32592, base: 55188, puts: 96, bytes: 98304},
	"gemm/2x1":     {fused: 29680, base: 45360, puts: 16, bytes: 16384},
	"gemm/2x2":     {fused: 47584, base: 75620, puts: 96, bytes: 98304},
	"embgrad/1x4":  {fused: 20166, base: 47572, puts: 96, bytes: 49152},
	"embgrad/2x1":  {fused: 27752, base: 51312, puts: 32, bytes: 16384},
	"embgrad/2x2":  {fused: 28584, base: 58788, puts: 96, bytes: 49152},
}

// TestOperatorMakespansPinned runs the three pair operators and the
// embedding gradient exchange, fused and baseline, on 1x4, 2x1 and 2x2
// in timing mode (plus the zero-copy ablation on 1x4) and checks the
// exact simulated makespans and fused remote traffic.
func TestOperatorMakespansPinned(t *testing.T) {
	shapes := [][2]int{{1, 4}, {2, 1}, {2, 2}}
	for _, op := range pinOps {
		for _, sh := range shapes {
			if op.name == "emb-nozc" && sh != [2]int{1, 4} {
				continue
			}
			key := fmt.Sprintf("%s/%dx%d", op.name, sh[0], sh[1])
			var got pinned
			for v := 0; v < 2; v++ {
				e := sim.NewEngine()
				pl, w := timingWorld(e, sh[0], sh[1])
				fused, base := op.build(t, pl, w)
				if v == 0 {
					rep := runOp(e, fused)
					got.fused, got.puts, got.bytes = rep.Duration(), rep.RemotePuts, rep.RemoteBytes
				} else {
					got.base = runOp(e, base).Duration()
				}
			}
			if want, ok := makespanPins[key]; !ok || got != want {
				t.Errorf("%q: {fused: %d, base: %d, puts: %d, bytes: %g}, want %+v", key, got.fused, got.base, got.puts, got.bytes, want)
			}
		}
	}
}
