package shmem

import (
	"testing"

	"fusedcc/internal/gpu"
	"fusedcc/internal/platform"
	"fusedcc/internal/sim"
)

// testPlatform builds a small functional cluster.
func testPlatform(e *sim.Engine, nodes, gpusPerNode int) *platform.Platform {
	cfg := platform.Config{
		Nodes:       nodes,
		GPUsPerNode: gpusPerNode,
		GPU: gpu.Config{
			Name: "t", CUs: 4, MaxWGSlotsPerCU: 2,
			HBMBandwidth: 1e9, PerWGStreamBandwidth: 0.5e9,
			GatherEfficiency: 0.5, FlopsPerCU: 1e9,
			KernelLaunchOverhead: sim.Microsecond, Functional: true,
		},
	}
	if gpusPerNode > 1 {
		cfg.Fabric.LinkBandwidth = 1e9
		cfg.Fabric.StoreLatency = 100
		cfg.Fabric.PerWGStoreBandwidth = 0.25e9
	}
	if nodes > 1 {
		cfg.NICBandwidth = 1e9
		cfg.NICLatency = 2 * sim.Microsecond
	}
	pl, err := platform.New(e, cfg)
	if err != nil {
		panic(err)
	}
	return pl
}

func launch1WG(pl *platform.Platform, dev int, body func(w *gpu.WG)) {
	pl.E.Go("host", func(p *sim.Proc) {
		pl.Device(dev).Launch(p, gpu.Kernel{Name: "k", PhysWGs: 1, Body: body})
	})
}

func TestMallocSymmetricAcrossPEs(t *testing.T) {
	e := sim.NewEngine()
	pl := testPlatform(e, 2, 1)
	w := NewWorld(pl, DefaultConfig())
	s := w.Malloc(16)
	if s.Len() != 16 {
		t.Fatalf("len = %d", s.Len())
	}
	for pe := 0; pe < w.NPEs(); pe++ {
		if s.On(pe).Len() != 16 {
			t.Errorf("PE %d buffer len = %d", pe, s.On(pe).Len())
		}
		if s.On(pe).Device().ID() != pe {
			t.Errorf("PE %d buffer on wrong device", pe)
		}
	}
}

func TestPutNbiDeliversDataCrossNode(t *testing.T) {
	e := sim.NewEngine()
	pl := testPlatform(e, 2, 1)
	w := NewWorld(pl, DefaultConfig())
	dst := w.Malloc(8)
	src := pl.Device(0).Alloc(8)
	for i := range src.Data() {
		src.Data()[i] = float32(i + 1)
	}
	launch1WG(pl, 0, func(wg *gpu.WG) {
		w.PutNbiRows(wg, 1, dst, 0, 0, src, 0, 0, 1, 8)
	})
	// The run ends only after the put is delivered.
	e.Run()
	got := dst.On(1).Data()
	for i := range got {
		if got[i] != float32(i+1) {
			t.Fatalf("dst[1][%d] = %g, want %d", i, got[i], i+1)
		}
	}
	// PE 0's own instance must be untouched.
	if dst.On(0).Data()[0] != 0 {
		t.Error("put leaked into source PE's instance")
	}
}

func TestPutFlagOrderedAfterData(t *testing.T) {
	e := sim.NewEngine()
	pl := testPlatform(e, 2, 1)
	w := NewWorld(pl, DefaultConfig())
	dst := w.Malloc(1024)
	fl := w.MallocFlags(1)
	src := pl.Device(0).Alloc(1024)
	src.Fill(7)
	var seen float32
	launch1WG(pl, 0, func(wg *gpu.WG) {
		w.PutNbiRows(wg, 1, dst, 0, 0, src, 0, 0, 1, 1024)
		w.Fence(wg)
		w.PutFlagNbi(wg, 1, fl, 0, 1)
	})
	launch1WG(pl, 1, func(wg *gpu.WG) {
		fl.WaitGE(wg, 0, 1)
		seen = dst.On(1).Data()[1023]
	})
	e.Run()
	if seen != 7 {
		t.Fatalf("consumer saw %g after flag, want 7 (fence ordering broken)", seen)
	}
}

func TestPutNbiSamePEIsImmediate(t *testing.T) {
	e := sim.NewEngine()
	pl := testPlatform(e, 2, 1)
	w := NewWorld(pl, DefaultConfig())
	dst := w.Malloc(4)
	src := pl.Device(0).Alloc(4)
	src.Fill(3)
	launch1WG(pl, 0, func(wg *gpu.WG) {
		w.PutNbiRows(wg, 0, dst, 0, 0, src, 0, 0, 1, 4)
		if dst.On(0).Data()[3] != 3 {
			t.Error("same-PE put must apply immediately")
		}
	})
	e.Run()
}

func TestStoreRemoteZeroCopySameNode(t *testing.T) {
	e := sim.NewEngine()
	pl := testPlatform(e, 1, 2)
	w := NewWorld(pl, DefaultConfig())
	dst := w.Malloc(256)
	vals := make([]float32, 256)
	for i := range vals {
		vals[i] = 5
	}
	var issueDur, fenceAt sim.Duration
	launch1WG(pl, 0, func(wg *gpu.WG) {
		start := wg.P.Now()
		if r := w.SendValues(wg, 1, dst, 0, vals, 256); r != RouteFabric {
			t.Errorf("same-node send took %v, want fabric", r)
		}
		issueDur = wg.P.Now().Sub(start)
		// Fire-and-forget: the WG resumes immediately; visibility
		// requires a fence.
		w.storeFence(wg, 1)
		fenceAt = wg.P.Now().Sub(start)
		if dst.On(1).Data()[255] != 5 {
			t.Error("store not visible after fence")
		}
	})
	e.Run()
	if issueDur > sim.Microsecond {
		t.Errorf("store issue blocked the WG for %v", issueDur)
	}
	// 1 KiB at the 0.25 GB/s per-WG stream rate = 4.096us + latency.
	want := sim.DurationOf(1024.0/0.25e9) + 100
	if d := fenceAt - want; d < -200 || d > 200 {
		t.Errorf("fence completed at %v, want ~%v", fenceAt, want)
	}
}

func TestStoreRemoteCrossNodePanics(t *testing.T) {
	e := sim.NewEngine()
	pl := testPlatform(e, 2, 1)
	w := NewWorld(pl, DefaultConfig())
	dst := w.Malloc(4)
	launch1WG(pl, 0, func(wg *gpu.WG) {
		w.storeValuesRows(wg, 1, dst, 0, 0, []float32{1, 2, 3, 4}, 1, 4)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for a cross-node native store")
		}
	}()
	e.Run()
}

func TestIntraNodePutUsesFabricChannel(t *testing.T) {
	e := sim.NewEngine()
	pl := testPlatform(e, 1, 2)
	w := NewWorld(pl, DefaultConfig())
	dst := w.Malloc(1024)
	fl := w.MallocFlags(1)
	src := pl.Device(0).Alloc(1024)
	src.Fill(9)
	var seen float32
	launch1WG(pl, 0, func(wg *gpu.WG) {
		w.PutNbiRows(wg, 1, dst, 0, 0, src, 0, 0, 1, 1024)
		w.PutFlagNbi(wg, 1, fl, 0, 1)
	})
	launch1WG(pl, 1, func(wg *gpu.WG) {
		fl.WaitGE(wg, 0, 1)
		seen = dst.On(1).Data()[0]
	})
	e.Run()
	if seen != 9 {
		t.Fatalf("intra-node put: consumer saw %g, want 9", seen)
	}
}

func TestStoreRemoteFlagSameNode(t *testing.T) {
	e := sim.NewEngine()
	pl := testPlatform(e, 1, 2)
	w := NewWorld(pl, DefaultConfig())
	fl := w.MallocFlags(2)
	launch1WG(pl, 0, func(wg *gpu.WG) {
		w.storeRemoteFlag(wg, 1, fl, 1, 3)
	})
	e.Run()
	if got := fl.On(1, 1).Value(); got != 3 {
		t.Fatalf("remote flag = %d, want 3", got)
	}
}

func TestPlatformShapeHelpers(t *testing.T) {
	e := sim.NewEngine()
	pl := testPlatform(e, 2, 2)
	if pl.NDevices() != 4 {
		t.Fatalf("devices = %d", pl.NDevices())
	}
	if pl.NodeOf(3) != 1 || pl.LocalIdx(3) != 1 {
		t.Error("node mapping broken")
	}
	if pl.SameNode(0, 1) != true || pl.SameNode(1, 2) != false {
		t.Error("SameNode broken")
	}
}

func TestRouteClassification(t *testing.T) {
	e := sim.NewEngine()
	pl := testPlatform(e, 2, 4)
	w := NewWorld(pl, DefaultConfig())
	cases := []struct {
		src, dst int
		want     Route
	}{
		{0, 0, RouteLocal},
		{0, 3, RouteFabric},
		{5, 4, RouteFabric},
		{0, 4, RouteNIC},
		{3, 4, RouteNIC}, // adjacent global ids across the node boundary
	}
	for _, tc := range cases {
		if got := w.Route(tc.src, tc.dst); got != tc.want {
			t.Errorf("Route(%d,%d) = %v, want %v", tc.src, tc.dst, got, tc.want)
		}
	}
}

func TestSendValuesRoutesByTopology(t *testing.T) {
	// On a 2x2 hybrid, SendValues must take the fabric to a same-node
	// peer, the NIC channel to a cross-node one, and deliver correct
	// data on both routes.
	e := sim.NewEngine()
	pl := testPlatform(e, 2, 2)
	w := NewWorld(pl, DefaultConfig())
	dst := w.Malloc(8)
	fl := w.MallocFlags(2)
	vals := []float32{1, 2, 3, 4}
	var fabricRoute, nicRoute Route
	launch1WG(pl, 0, func(wg *gpu.WG) {
		fabricRoute = w.SendValues(wg, 1, dst, 0, vals, 4)
		w.SendFlag(wg, 1, fl, 0, 1)
		nicRoute = w.SendValues(wg, 2, dst, 4, vals, 4)
		w.SendFlag(wg, 2, fl, 1, 1)
	})
	e.Run()
	if fabricRoute != RouteFabric {
		t.Errorf("same-node send took %v, want fabric", fabricRoute)
	}
	if nicRoute != RouteNIC {
		t.Errorf("cross-node send took %v, want nic", nicRoute)
	}
	if fl.On(1, 0).Value() != 1 || fl.On(2, 1).Value() != 1 {
		t.Fatal("send flags not delivered")
	}
	if dst.On(1).Data()[3] != 4 || dst.On(2).Data()[7] != 4 {
		t.Error("sent values not delivered on both routes")
	}
}

func TestStoreRemoteFlagAcrossNodesPanics(t *testing.T) {
	e := sim.NewEngine()
	pl := testPlatform(e, 2, 2)
	w := NewWorld(pl, DefaultConfig())
	fl := w.MallocFlags(1)
	launch1WG(pl, 0, func(wg *gpu.WG) {
		w.storeRemoteFlag(wg, 2, fl, 0, 1)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for cross-node storeRemoteFlag")
		}
	}()
	e.Run()
}
