package fabric

import (
	"testing"

	"fusedcc/internal/sim"
)

func cfg() Config {
	return Config{LinkBandwidth: 1e9, StoreLatency: 100, PerWGStoreBandwidth: 0.25e9}
}

func TestStoreRespectsPerWGCap(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, 2, cfg())
	var end sim.Time
	f.StoreAsync(0, 1, 0.25e9, 1, func() { end = e.Now() })
	e.Run()
	want := sim.Time(sim.Second + 100) // capped at 0.25 GB/s + latency
	if d := end - want; d < -10 || d > 10 {
		t.Errorf("store done at %v, want ~%v", end, want)
	}
}

func TestCopyUsesFullLink(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, 2, cfg())
	var end sim.Time
	e.Go("blit", func(p *sim.Proc) {
		f.Copy(p, 0, 1, 1e9)
		end = p.Now()
	})
	e.Run()
	want := sim.Time(sim.Second + 100)
	if d := end - want; d < -10 || d > 10 {
		t.Errorf("copy done at %v, want ~%v", end, want)
	}
}

func TestLinksAreIndependentPerDirection(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, 2, cfg())
	var a, b sim.Time
	e.Go("fwd", func(p *sim.Proc) { f.Copy(p, 0, 1, 1e9); a = p.Now() })
	e.Go("rev", func(p *sim.Proc) { f.Copy(p, 1, 0, 1e9); b = p.Now() })
	e.Run()
	want := sim.Time(sim.Second + 100)
	for _, got := range []sim.Time{a, b} {
		if d := got - want; d < -10 || d > 10 {
			t.Errorf("duplex transfer done at %v, want ~%v (no duplex sharing)", got, want)
		}
	}
}

func TestConcurrentStoresShareLink(t *testing.T) {
	// 8 WGs each storing 0.125 GB: caps allow 0.25 each => demand 2 GB/s
	// on a 1 GB/s link => fair share 0.125 GB/s each => ~1s.
	e := sim.NewEngine()
	f := New(e, 2, cfg())
	var end sim.Time
	done := 0
	for i := 0; i < 8; i++ {
		f.StoreAsync(0, 1, 0.125e9, 1, func() {
			done++
			end = e.Now()
		})
	}
	e.Run()
	if done != 8 {
		t.Fatalf("done = %d", done)
	}
	want := sim.Time(sim.Second + 100)
	if d := end - want; d < -1000 || d > 1000 {
		t.Errorf("contended stores done at %v, want ~%v", end, want)
	}
}

func TestSelfStoreIsFree(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, 2, cfg())
	fired := false
	f.StoreAsync(1, 1, 1e12, 1, func() {
		fired = true
		if e.Now() != 0 {
			t.Errorf("self store completed at %v", e.Now())
		}
	})
	e.Run()
	if !fired {
		t.Error("self store never completed")
	}
}

func TestLinkPanicsOnDiagonal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for diagonal link")
		}
	}()
	e := sim.NewEngine()
	New(e, 2, cfg()).Link(1, 1)
}

func TestDefaultConfigMatchesTableI(t *testing.T) {
	c := DefaultConfig()
	if c.LinkBandwidth != 80e9 {
		t.Errorf("link bw = %g, want 80 GB/s (Table I)", c.LinkBandwidth)
	}
}
