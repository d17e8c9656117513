package core

import (
	"fmt"
	"testing"

	"fusedcc/internal/fabric"
	"fusedcc/internal/gpu"
	"fusedcc/internal/kernels"
	"fusedcc/internal/platform"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
	"fusedcc/internal/trace"
	"fusedcc/internal/workload"
)

// testPlatform builds a small functional cluster with paper-like ratios.
func testPlatform(e *sim.Engine, nodes, gpn int) *platform.Platform {
	pl, err := platform.New(e, testConfig(nodes, gpn))
	if err != nil {
		panic(err)
	}
	return pl
}

// testConfig is testPlatform's cluster configuration.
func testConfig(nodes, gpn int) platform.Config {
	return platform.Config{
		Nodes:       nodes,
		GPUsPerNode: gpn,
		GPU: gpu.Config{
			Name: "t", CUs: 8, MaxWGSlotsPerCU: 4,
			HBMBandwidth: 32e9, PerWGStreamBandwidth: 2e9,
			GatherEfficiency: 0.5, FlopsPerCU: 4e9,
			KernelLaunchOverhead: 8 * sim.Microsecond, Functional: true,
		},
		Fabric: fabric.Config{
			LinkBandwidth: 8e9, StoreLatency: 700, PerWGStoreBandwidth: 2e9,
		},
		NICBandwidth: 2e9,
		NICLatency:   2 * sim.Microsecond,
	}
}

func newWorld(e *sim.Engine, nodes, gpn int) (*platform.Platform, *shmem.World) {
	pl := testPlatform(e, nodes, gpn)
	return pl, shmem.NewWorld(pl, shmem.DefaultConfig())
}

func pesOf(pl *platform.Platform) []int {
	pes := make([]int, pl.NDevices())
	for i := range pes {
		pes[i] = i
	}
	return pes
}

// buildEmbedding constructs per-rank embedding sets with seeded data.
func buildEmbedding(pl *platform.Platform, pes []int, tables, rows, dim, batch, pooling int) []*kernels.EmbeddingSet {
	sets := make([]*kernels.EmbeddingSet, len(pes))
	for s, pe := range pes {
		rng := workload.Rand(int64(1000 + s))
		var bags []*kernels.EmbeddingBag
		for t := 0; t < tables; t++ {
			tab := kernels.NewEmbeddingTable(pl.Device(pe), rows, dim)
			workload.FillRandom(rng, tab.Weights)
			csr := workload.Lookups(rng, batch, rows, pooling)
			bags = append(bags, &kernels.EmbeddingBag{
				Table: tab, Batch: batch, AvgPooling: float64(pooling),
				Offsets: csr.Offsets, Indices: csr.Indices,
			})
		}
		sets[s] = &kernels.EmbeddingSet{Bags: bags}
	}
	return sets
}

func runOp(e *sim.Engine, fn func(p *sim.Proc) Report) Report {
	var rep Report
	e.Go("coord", func(p *sim.Proc) { rep = fn(p) })
	e.Run()
	return rep
}

// --- Bitmask ---

func TestBitmaskLastFinisher(t *testing.T) {
	b := NewBitmask(4)
	for i := 0; i < 3; i++ {
		if b.Set(i) {
			t.Fatalf("bit %d reported last", i)
		}
	}
	if !b.Set(3) {
		t.Fatal("last bit not detected")
	}
	if !b.Done() {
		t.Fatal("Done false after all set")
	}
}

func TestBitmaskDoubleSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on double set")
		}
	}()
	b := NewBitmask(2)
	b.Set(1)
	b.Set(1)
}

func TestBitmaskWide(t *testing.T) {
	b := NewBitmask(130) // crosses word boundaries
	for i := 0; i < 129; i++ {
		if b.Set(i) {
			t.Fatal("premature last")
		}
	}
	if !b.Set(129) {
		t.Fatal("last not detected at 130 bits")
	}
}

// --- Embedding + All-to-All ---

// embSetup builds fused & baseline runs on separate engines with the same
// seeded data and returns their reports plus output checks.
func embFusedVsBaseline(t *testing.T, nodes, gpn, tables, batch, slice int, sched Schedule) (fused, base Report, outsEqual bool) {
	t.Helper()
	const rows, dim, pooling = 64, 8, 4
	outputs := make([][][]float32, 2) // [variant][rank][data]
	reports := make([]Report, 2)
	for v, variant := range []string{"fused", "baseline"} {
		e := sim.NewEngine()
		pl, w := newWorld(e, nodes, gpn)
		pes := pesOf(pl)
		sets := buildEmbedding(pl, pes, tables, rows, dim, batch, pooling)
		cfg := DefaultConfig()
		cfg.Schedule = sched
		op, err := NewEmbeddingAllToAll(w, pes, sets, batch, slice, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if variant == "fused" {
			reports[v] = runOp(e, op.RunFused)
		} else {
			reports[v] = runOp(e, op.RunBaseline)
		}
		outputs[v] = make([][]float32, len(pes))
		for s, pe := range pes {
			outputs[v][s] = append([]float32(nil), op.Out.On(pe).Data()...)
		}
	}
	outsEqual = true
	for s := range outputs[0] {
		if len(outputs[0][s]) != len(outputs[1][s]) {
			t.Fatalf("rank %d output lengths differ", s)
		}
		for i := range outputs[0][s] {
			if outputs[0][s][i] != outputs[1][s][i] {
				t.Errorf("rank %d elem %d: fused %g != baseline %g", s, i, outputs[0][s][i], outputs[1][s][i])
				outsEqual = false
				if i > 4 {
					t.FailNow()
				}
			}
		}
	}
	return reports[0], reports[1], outsEqual
}

func TestEmbeddingA2AInterNodeMatchesBaseline(t *testing.T) {
	fused, base, equal := embFusedVsBaseline(t, 2, 1, 4, 32, 4, CommAware)
	if !equal {
		t.Fatal("fused output differs from baseline")
	}
	if fused.Duration() <= 0 || base.Duration() <= 0 {
		t.Fatal("reports missing durations")
	}
	if fused.RemotePuts == 0 {
		t.Error("fused run issued no remote puts")
	}
}

func TestEmbeddingA2AIntraNodeMatchesBaseline(t *testing.T) {
	_, _, equal := embFusedVsBaseline(t, 1, 4, 4, 32, 4, CommAware)
	if !equal {
		t.Fatal("fused output differs from baseline (scale-up zero-copy)")
	}
}

func TestEmbeddingA2AObliviousStillCorrect(t *testing.T) {
	_, _, equal := embFusedVsBaseline(t, 2, 1, 2, 16, 4, Oblivious)
	if !equal {
		t.Fatal("oblivious schedule corrupted output")
	}
}

func TestEmbeddingA2AFusedFasterInterNode(t *testing.T) {
	// A communication-heavy shape: the baseline exposes the whole
	// All-to-All after per-table kernels; the fused kernel hides it.
	fused, base, _ := embFusedVsBaseline(t, 2, 1, 8, 64, 8, CommAware)
	if fused.Duration() >= base.Duration() {
		t.Errorf("fused %v not faster than baseline %v", fused.Duration(), base.Duration())
	}
}

func TestEmbeddingA2ARemotePutCount(t *testing.T) {
	// 2 ranks, T tables, batch B, slice S: remote slices per rank =
	// T * (B/S) / 2 (half the batch range is remote).
	e := sim.NewEngine()
	pl, w := newWorld(e, 2, 1)
	pes := pesOf(pl)
	const tables, batch, slice = 3, 24, 4
	sets := buildEmbedding(pl, pes, tables, 64, 8, batch, 4)
	op, err := NewEmbeddingAllToAll(w, pes, sets, batch, slice, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep := runOp(e, op.RunFused)
	wantPerRank := tables * (batch / slice) / 2
	if rep.RemotePuts != 2*wantPerRank {
		t.Errorf("remote puts = %d, want %d", rep.RemotePuts, 2*wantPerRank)
	}
}

func TestEmbeddingA2AValidation(t *testing.T) {
	e := sim.NewEngine()
	pl, w := newWorld(e, 2, 1)
	pes := pesOf(pl)
	sets := buildEmbedding(pl, pes, 2, 64, 8, 32, 4)
	cases := []struct {
		name  string
		batch int
		slice int
	}{
		{"batch not divisible", 33, 4},
		{"slice not dividing local batch", 32, 5},
		{"zero slice", 32, 0},
	}
	for _, c := range cases {
		if _, err := NewEmbeddingAllToAll(w, pes, sets, c.batch, c.slice, DefaultConfig()); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestCommAwareScheduleOrdersRemoteFirst(t *testing.T) {
	e := sim.NewEngine()
	pl, w := newWorld(e, 2, 1)
	pes := pesOf(pl)
	sets := buildEmbedding(pl, pes, 2, 64, 8, 32, 4)
	op, err := NewEmbeddingAllToAll(w, pes, sets, 32, 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		order := op.scheduleSlices(s)
		if len(order) != op.numSlices() {
			t.Fatalf("rank %d: schedule has %d slices, want %d", s, len(order), op.numSlices())
		}
		seenLocal := false
		for _, sl := range order {
			if op.sliceDst(sl) == s {
				seenLocal = true
			} else if seenLocal {
				t.Fatalf("rank %d: remote slice after local in comm-aware order", s)
			}
		}
	}
}

func TestObliviousScheduleIsBatchMajor(t *testing.T) {
	// The hardware dispatcher enumerates WG(0,0,0) first: batch-slice
	// major with tables fastest (paper Fig 6), so rank 0 under
	// oblivious scheduling computes all of its local slices before any
	// remote one.
	e := sim.NewEngine()
	pl, w := newWorld(e, 2, 1)
	pes := pesOf(pl)
	sets := buildEmbedding(pl, pes, 2, 64, 8, 32, 4)
	cfg := DefaultConfig()
	cfg.Schedule = Oblivious
	op, err := NewEmbeddingAllToAll(w, pes, sets, 32, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := op.scheduleSlices(0)
	if len(order) != op.numSlices() {
		t.Fatalf("order len = %d", len(order))
	}
	seen := map[int]bool{}
	for _, sl := range order {
		if seen[sl] {
			t.Fatalf("slice %d scheduled twice", sl)
		}
		seen[sl] = true
	}
	// Rank 0: every local (dst 0) slice must come before every remote.
	seenRemote := false
	for _, sl := range order {
		if op.sliceDst(sl) != 0 {
			seenRemote = true
		} else if seenRemote {
			t.Fatal("rank 0 oblivious order interleaves local after remote")
		}
	}
	// Tables fastest: first two entries are batch-slice 0 of each table.
	if order[0] != 0 || order[1] != op.slicesPerTable() {
		t.Fatalf("order starts %v, want tables-fastest", order[:2])
	}
}

func TestCommAwareReducesSkew(t *testing.T) {
	// The Fig 14 effect: oblivious scheduling on rank 0 computes local
	// slices first, delaying rank 1; comm-aware balances completion.
	skew := func(sched Schedule) float64 {
		e := sim.NewEngine()
		pl, w := newWorld(e, 2, 1)
		pes := pesOf(pl)
		sets := buildEmbedding(pl, pes, 8, 64, 8, 64, 4)
		cfg := DefaultConfig()
		cfg.Schedule = sched
		op, err := NewEmbeddingAllToAll(w, pes, sets, 64, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return runOp(e, op.RunFused).Skew()
	}
	aware, obliv := skew(CommAware), skew(Oblivious)
	if aware >= obliv {
		t.Errorf("comm-aware skew %.3f not lower than oblivious %.3f", aware, obliv)
	}
}

func TestTimelineRecordsFusedRun(t *testing.T) {
	e := sim.NewEngine()
	pl, w := newWorld(e, 2, 1)
	pes := pesOf(pl)
	sets := buildEmbedding(pl, pes, 2, 64, 8, 32, 4)
	cfg := DefaultConfig()
	var tl trace.Timeline
	tl.Enable()
	cfg.Timeline = &tl
	op, err := NewEmbeddingAllToAll(w, pes, sets, 32, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runOp(e, op.RunFused)
	if len(tl.ByKind(trace.Compute)) == 0 {
		t.Error("no compute spans recorded")
	}
	if len(tl.ByKind(trace.PutIssue)) == 0 {
		t.Error("no put events recorded")
	}
	if g := tl.Gantt(60, 8); len(g) == 0 {
		t.Error("empty gantt")
	}
}

// --- GEMV + AllReduce ---

func gemvSetup(e *sim.Engine, m, kdim, tile int) (*platform.Platform, *shmem.World, []int, []*kernels.GEMV) {
	pl, w := newWorld(e, 1, 4)
	pes := pesOf(pl)
	gemvs := make([]*kernels.GEMV, len(pes))
	for s, pe := range pes {
		rng := workload.Rand(int64(50 + s))
		dev := pl.Device(pe)
		g := &kernels.GEMV{M: m, K: kdim, TileM: tile,
			W: dev.Alloc(m * kdim), X: dev.Alloc(kdim), Y: dev.Alloc(m)}
		workload.FillRandom(rng, g.W)
		workload.FillRandom(rng, g.X)
		gemvs[s] = g
	}
	return pl, w, pes, gemvs
}

func TestGEMVAllReduceMatchesBaseline(t *testing.T) {
	const m, kdim, tile = 96, 32, 8
	get := func(fusedRun bool) ([]float32, Report) {
		e := sim.NewEngine()
		_, w, pes, gemvs := gemvSetup(e, m, kdim, tile)
		op, err := NewGEMVAllReduce(w, pes, gemvs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var rep Report
		if fusedRun {
			rep = runOp(e, op.RunFused)
		} else {
			rep = runOp(e, op.RunBaseline)
		}
		return append([]float32(nil), op.Out.On(pes[2]).Data()...), rep
	}
	fusedOut, frep := get(true)
	baseOut, _ := get(false)
	for i := range fusedOut {
		if fusedOut[i] != baseOut[i] {
			t.Fatalf("y[%d]: fused %g != baseline %g", i, fusedOut[i], baseOut[i])
		}
	}
	if frep.RemotePuts == 0 {
		t.Error("fused GEMV+AR issued no remote stores")
	}
}

func TestGEMVAllReduceAllRanksIdenticalOutput(t *testing.T) {
	e := sim.NewEngine()
	_, w, pes, gemvs := gemvSetup(e, 64, 16, 8)
	op, err := NewGEMVAllReduce(w, pes, gemvs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runOp(e, op.RunFused)
	ref := op.Out.On(pes[0]).Data()
	for _, pe := range pes[1:] {
		d := op.Out.On(pe).Data()
		for i := range d {
			if d[i] != ref[i] {
				t.Fatalf("rank %d out[%d] = %g, rank0 %g", pe, i, d[i], ref[i])
			}
		}
	}
}

func TestGEMVAllReduceFusedFaster(t *testing.T) {
	// Large M: AllReduce time matters; fused overlaps it with GEMV.
	timeOf := func(fusedRun bool) sim.Duration {
		e := sim.NewEngine()
		_, w, pes, gemvs := gemvSetup(e, 4096, 64, 64)
		op, err := NewGEMVAllReduce(w, pes, gemvs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if fusedRun {
			return runOp(e, op.RunFused).Duration()
		}
		return runOp(e, op.RunBaseline).Duration()
	}
	fused, base := timeOf(true), timeOf(false)
	if fused >= base {
		t.Errorf("fused GEMV+AR %v not faster than baseline %v", fused, base)
	}
}

func TestGEMVAllReduceValidation(t *testing.T) {
	e := sim.NewEngine()
	_, w, pes, gemvs := gemvSetup(e, 64, 16, 8)
	gemvs[1] = &kernels.GEMV{M: 32, K: 16, TileM: 8} // mismatched M
	if _, err := NewGEMVAllReduce(w, pes, gemvs, DefaultConfig()); err == nil {
		t.Fatal("want error for mismatched output shapes")
	}
}

// --- GEMM + All-to-All ---

func gemmSetup(e *sim.Engine, tokens, n, kdim, tm, tn, ranks int) (*shmem.World, []int, []*kernels.GEMM) {
	return gemmSetupShape(e, tokens, n, kdim, tm, tn, 1, ranks)
}

func gemmSetupShape(e *sim.Engine, tokens, n, kdim, tm, tn, nodes, gpn int) (*shmem.World, []int, []*kernels.GEMM) {
	pl, w := newWorld(e, nodes, gpn)
	pes := pesOf(pl)
	m := tokens * pl.NDevices()
	gemms := make([]*kernels.GEMM, len(pes))
	for s, pe := range pes {
		rng := workload.Rand(int64(70 + s))
		dev := pl.Device(pe)
		g := &kernels.GEMM{M: m, N: n, K: kdim, TileM: tm, TileN: tn,
			A: dev.Alloc(m * kdim), B: dev.Alloc(kdim * n), C: dev.Alloc(m * n)}
		workload.FillRandom(rng, g.A)
		workload.FillRandom(rng, g.B)
		gemms[s] = g
	}
	return w, pes, gemms
}

func TestGEMMAllToAllMatchesBaseline(t *testing.T) {
	get := func(fusedRun bool) []float32 {
		e := sim.NewEngine()
		w, pes, gemms := gemmSetup(e, 8, 12, 6, 4, 4, 4)
		op, err := NewGEMMAllToAll(w, pes, gemms, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if fusedRun {
			runOp(e, op.RunFused)
		} else {
			runOp(e, op.RunBaseline)
		}
		var all []float32
		for _, pe := range pes {
			all = append(all, op.Recv.On(pe).Data()...)
		}
		return all
	}
	fused, base := get(true), get(false)
	for i := range fused {
		if fused[i] != base[i] {
			t.Fatalf("recv[%d]: fused %g != baseline %g", i, fused[i], base[i])
		}
	}
}

func TestGEMMAllToAllFusedNotSlower(t *testing.T) {
	timeOf := func(fusedRun bool) sim.Duration {
		e := sim.NewEngine()
		w, pes, gemms := gemmSetup(e, 64, 64, 64, 8, 16, 4)
		op, err := NewGEMMAllToAll(w, pes, gemms, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if fusedRun {
			return runOp(e, op.RunFused).Duration()
		}
		return runOp(e, op.RunBaseline).Duration()
	}
	fused, base := timeOf(true), timeOf(false)
	if fused >= base {
		t.Errorf("fused GEMM+A2A %v not faster than baseline %v", fused, base)
	}
}

func TestGEMMAllToAllValidation(t *testing.T) {
	e := sim.NewEngine()
	w, pes, gemms := gemmSetup(e, 8, 12, 6, 4, 4, 4)
	gemms[0].TileM = 3 // differs from the other ranks
	if _, err := NewGEMMAllToAll(w, pes, gemms, DefaultConfig()); err == nil {
		t.Fatal("want error for per-rank tiling mismatch")
	}
	// A tiling that does not divide the tokens per rank is legal on every
	// rank at once: the operator re-tiles each destination block with a
	// ragged tail band.
	e2 := sim.NewEngine()
	w2, pes2, gemms2 := gemmSetup(e2, 8, 12, 6, 3, 4, 4)
	op, err := NewGEMMAllToAll(w2, pes2, gemms2, DefaultConfig())
	if err != nil {
		t.Fatalf("ragged tiling rejected: %v", err)
	}
	if op.MaxChunks() != 3 { // ceil(8 tokens / TileM 3)
		t.Errorf("ragged MaxChunks = %d, want 3", op.MaxChunks())
	}
}

// --- Report ---

func TestReportSkew(t *testing.T) {
	r := Report{Start: 0, End: 100, PEEnd: []sim.Time{90, 100}}
	if s := r.Skew(); s != 0.1 {
		t.Errorf("skew = %g, want 0.1", s)
	}
	empty := Report{}
	if empty.Skew() != 0 {
		t.Error("empty report skew must be 0")
	}
}

func TestScheduleString(t *testing.T) {
	if fmt.Sprint(CommAware) != "comm-aware" || fmt.Sprint(Oblivious) != "oblivious" {
		t.Error("Schedule.String broken")
	}
}

// --- Hybrid (multi-node x multi-GPU) shapes ---

func TestEmbeddingA2AHybridMatchesBaseline(t *testing.T) {
	// 2 nodes x 2 GPUs: the fused kernel mixes zero-copy fabric stores
	// (same-node slices) with NIC puts (cross-node slices), and the
	// baseline's Auto collective resolves to the hierarchical All-to-All.
	fused, _, equal := embFusedVsBaseline(t, 2, 2, 2, 32, 4, CommAware)
	if !equal {
		t.Fatal("fused output differs from baseline on the hybrid shape")
	}
	if fused.RemotePuts == 0 {
		t.Error("hybrid fused run issued no remote communication")
	}
}

func TestGEMVARHybridMatchesBaseline(t *testing.T) {
	run := func(fused bool) []float32 {
		e := sim.NewEngine()
		pl, w := newWorld(e, 2, 2)
		pes := pesOf(pl)
		gemvs := make([]*kernels.GEMV, len(pes))
		for s, pe := range pes {
			g := &kernels.GEMV{M: 32, K: 8, TileM: 4,
				W: pl.Device(pe).Alloc(32 * 8), X: pl.Device(pe).Alloc(8)}
			workload.FillRandom(workload.Rand(int64(50+s)), g.W)
			workload.FillRandom(workload.Rand(int64(90+s)), g.X)
			gemvs[s] = g
		}
		op, err := NewGEMVAllReduce(w, pes, gemvs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if fused {
			runOp(e, op.RunFused)
		} else {
			runOp(e, op.RunBaseline)
		}
		return append([]float32(nil), op.Out.On(0).Data()...)
	}
	f, b := run(true), run(false)
	for i := range f {
		if f[i] != b[i] {
			t.Fatalf("elem %d: fused %g != baseline %g", i, f[i], b[i])
		}
	}
}

func TestCommAwareDestOrderRanksByLinkCost(t *testing.T) {
	e := sim.NewEngine()
	pl := testPlatform(e, 2, 2)
	pes := pesOf(pl)
	cases := []struct {
		s    int
		want []int
	}{
		{0, []int{2, 3, 1, 0}}, // NIC peers first, fabric peer, self
		{2, []int{0, 1, 3, 2}},
	}
	for _, tc := range cases {
		got := commAwareDestOrder(pl, pes, tc.s)
		if len(got) != len(tc.want) {
			t.Fatalf("rank %d: order %v", tc.s, got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("rank %d: order %v, want %v", tc.s, got, tc.want)
			}
		}
	}
}

func TestHybridScheduleOrdersNICSlicesFirst(t *testing.T) {
	e := sim.NewEngine()
	pl, w := newWorld(e, 2, 2)
	pes := pesOf(pl)
	sets := buildEmbedding(pl, pes, 2, 64, 8, 32, 4)
	op, err := NewEmbeddingAllToAll(w, pes, sets, 32, 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < len(pes); s++ {
		order := op.scheduleSlices(s)
		// Tier of each slice: 0 = cross-node, 1 = same-node peer, 2 = self.
		tier := func(sl int) int {
			d := op.sliceDst(sl)
			switch {
			case d == s:
				return 2
			case pl.SameNode(pes[s], pes[d]):
				return 1
			default:
				return 0
			}
		}
		for i := 1; i < len(order); i++ {
			if tier(order[i]) < tier(order[i-1]) {
				t.Fatalf("rank %d: slice for cheaper link scheduled before costlier one at %d", s, i)
			}
		}
	}
}

func TestGEMMA2AHybridMatchesBaseline(t *testing.T) {
	// 2x2 hybrid: the Triton kernel's CommPutRows must route tiles over
	// the fabric to the same-node peer and over the NIC channel to the
	// remote node, matching the baseline bit-for-bit.
	get := func(fusedRun bool) []float32 {
		e := sim.NewEngine()
		w, pes, gemms := gemmSetupShape(e, 8, 12, 6, 4, 4, 2, 2)
		op, err := NewGEMMAllToAll(w, pes, gemms, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if fusedRun {
			runOp(e, op.RunFused)
		} else {
			runOp(e, op.RunBaseline)
		}
		var all []float32
		for _, pe := range pes {
			all = append(all, op.Recv.On(pe).Data()...)
		}
		return all
	}
	fused, base := get(true), get(false)
	for i := range fused {
		if fused[i] != base[i] {
			t.Fatalf("recv[%d]: fused %g != baseline %g", i, fused[i], base[i])
		}
	}
}
