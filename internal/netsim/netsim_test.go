package netsim

import (
	"testing"
	"testing/quick"

	"fusedcc/internal/sim"
)

func TestPointToPointSend(t *testing.T) {
	e := sim.NewEngine()
	net := NewPointToPoint(e, 2, 1e9, 2*sim.Microsecond)
	var end sim.Time
	e.Go("s", func(p *sim.Proc) {
		Send(p, net, 0, 1, 0.5e9)
		end = p.Now()
	})
	e.Run()
	want := sim.Time(500*sim.Millisecond + 2*sim.Microsecond)
	if d := end - want; d < -10 || d > 10 {
		t.Errorf("send done at %v, want ~%v", end, want)
	}
}

func TestPointToPointSelfPathEmpty(t *testing.T) {
	e := sim.NewEngine()
	net := NewPointToPoint(e, 2, 1e9, 2*sim.Microsecond)
	links, lat := net.Path(1, 1)
	if links != nil || lat != 0 {
		t.Error("self path must be free")
	}
}

func TestPointToPointSharedNIC(t *testing.T) {
	// Two concurrent sends from node 0 share its NIC.
	e := sim.NewEngine()
	net := NewPointToPoint(e, 3, 1e9, 0)
	var end sim.Time
	for dst := 1; dst <= 2; dst++ {
		dst := dst
		e.Go("s", func(p *sim.Proc) {
			Send(p, net, 0, dst, 0.5e9)
			end = p.Now()
		})
	}
	e.Run()
	want := sim.Time(sim.Second)
	if d := end - want; d < -10 || d > 10 {
		t.Errorf("shared NIC sends done at %v, want ~%v", end, want)
	}
}

func TestTorusIDCoordRoundTrip(t *testing.T) {
	e := sim.NewEngine()
	tor := NewTorus2D(e, 4, 8, 1e9, 700)
	for id := 0; id < tor.Nodes(); id++ {
		x, y := tor.Coord(id)
		if tor.ID(x, y) != id {
			t.Fatalf("roundtrip failed for %d", id)
		}
	}
	if tor.Nodes() != 32 {
		t.Errorf("nodes = %d, want 32", tor.Nodes())
	}
}

func TestTorusPathHopCount(t *testing.T) {
	e := sim.NewEngine()
	tor := NewTorus2D(e, 4, 4, 1e9, 700)
	cases := []struct {
		src, dst, hops int
	}{
		{tor.ID(0, 0), tor.ID(1, 0), 1},
		{tor.ID(0, 0), tor.ID(3, 0), 1}, // wraparound
		{tor.ID(0, 0), tor.ID(2, 0), 2},
		{tor.ID(0, 0), tor.ID(2, 2), 4},
		{tor.ID(1, 1), tor.ID(1, 1), 0},
	}
	for _, c := range cases {
		links, lat := tor.Path(c.src, c.dst)
		if len(links) != c.hops {
			t.Errorf("path %d->%d: %d hops, want %d", c.src, c.dst, len(links), c.hops)
		}
		if lat != sim.Duration(c.hops)*700 {
			t.Errorf("path %d->%d: latency %v, want %d hops x 700ns", c.src, c.dst, lat, c.hops)
		}
	}
}

func TestTorusRings(t *testing.T) {
	e := sim.NewEngine()
	tor := NewTorus2D(e, 4, 2, 1e9, 700)
	rx := tor.RingX(tor.ID(2, 1))
	if len(rx) != 4 {
		t.Fatalf("ringX len = %d", len(rx))
	}
	for x, id := range rx {
		if id != tor.ID(x, 1) {
			t.Errorf("ringX[%d] = %d", x, id)
		}
	}
	ry := tor.RingY(tor.ID(2, 1))
	if len(ry) != 2 {
		t.Fatalf("ringY len = %d", len(ry))
	}
}

func TestShortestStepDirection(t *testing.T) {
	if shortestStep(0, 1, 4) != 1 {
		t.Error("forward expected")
	}
	if shortestStep(0, 3, 4) != -1 {
		t.Error("wraparound expected")
	}
	if shortestStep(0, 2, 4) != 1 {
		t.Error("tie should go positive")
	}
}

func TestChannelOrderedDelivery(t *testing.T) {
	e := sim.NewEngine()
	net := NewPointToPoint(e, 2, 1e9, 5*sim.Microsecond)
	ch := NewChannel(e, net, 0, 1, 1*sim.Microsecond)
	var order []int
	// A big message posted first must still deliver before a tiny one
	// posted second (QP ordering).
	ch.Post(100e6, func() { order = append(order, 1) })
	ch.Post(10, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("delivery order = %v, want [1 2]", order)
	}
	if ch.Posted() != 2 || ch.Delivered() != 2 {
		t.Errorf("posted/delivered = %d/%d", ch.Posted(), ch.Delivered())
	}
}

func TestChannelPipelinesLatency(t *testing.T) {
	// Two messages of 1ms serialization with 100us propagation should
	// finish in ~2ms + 100us, not 2ms + 200us.
	e := sim.NewEngine()
	net := NewPointToPoint(e, 2, 1e9, 100*sim.Microsecond)
	ch := NewChannel(e, net, 0, 1, 0)
	var end sim.Time
	ch.Post(1e6, nil)
	ch.Post(1e6, func() { end = e.Now() })
	e.Run()
	want := sim.Time(2*sim.Millisecond + 100*sim.Microsecond)
	if d := end - want; d < -1000 || d > 1000 {
		t.Errorf("pipelined end = %v, want ~%v", end, want)
	}
}

func TestChannelToSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	e := sim.NewEngine()
	net := NewPointToPoint(e, 2, 1e9, 0)
	NewChannel(e, net, 1, 1, 0)
}

// Property: channels deliver strictly in post order for arbitrary
// message-size sequences (QP ordering under adversarial payloads).
func TestChannelOrderingProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 32 {
			return true
		}
		e := sim.NewEngine()
		net := NewPointToPoint(e, 2, 1e9, 3*sim.Microsecond)
		ch := NewChannel(e, net, 0, 1, 100)
		var order []int
		for i, sz := range sizes {
			i := i
			ch.Post(float64(sz)+1, func() { order = append(order, i) })
		}
		e.Run()
		if len(order) != len(sizes) {
			return false
		}
		for i, v := range order {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTorusWraparoundLatencyAndLength(t *testing.T) {
	// (0,0) -> (3,0) on a 4x4 torus must wrap: one hop, one hop's
	// latency, and the single traversed link is the wraparound 0->3.
	e := sim.NewEngine()
	tor := NewTorus2D(e, 4, 4, 1e9, 700*sim.Nanosecond)
	links, lat := tor.Path(tor.ID(0, 0), tor.ID(3, 0))
	if len(links) != 1 || lat != 700*sim.Nanosecond {
		t.Fatalf("wraparound path: %d hops, %v latency", len(links), lat)
	}
	if links[0] != tor.Link(tor.ID(0, 0), tor.ID(3, 0)) {
		t.Error("wraparound path must ride the 0->3 link")
	}
	// Corner to corner: one wrap in each dimension.
	links, lat = tor.Path(tor.ID(0, 0), tor.ID(3, 3))
	if len(links) != 2 || lat != 2*700*sim.Nanosecond {
		t.Errorf("corner path: %d hops, %v latency, want 2 hops", len(links), lat)
	}
}

func TestTorusSharedLinkContention(t *testing.T) {
	// Two concurrent messages over the same directed torus link share
	// its bandwidth fairly: each 0.5 GB message at 1 GB/s alone takes
	// 0.5s, together ~1s.
	e := sim.NewEngine()
	tor := NewTorus2D(e, 2, 2, 1e9, 0)
	var end sim.Time
	for i := 0; i < 2; i++ {
		e.Go("s", func(p *sim.Proc) {
			Send(p, tor, tor.ID(0, 0), tor.ID(1, 0), 0.5e9)
			end = p.Now()
		})
	}
	e.Run()
	want := sim.Time(sim.Second)
	if d := end - want; d < -10 || d > 10 {
		t.Errorf("contended sends done at %v, want ~%v", end, want)
	}
	// A message on a different link is unaffected by that contention.
	e2 := sim.NewEngine()
	tor2 := NewTorus2D(e2, 2, 2, 1e9, 0)
	var soloEnd sim.Time
	e2.Go("a", func(p *sim.Proc) { Send(p, tor2, tor2.ID(0, 0), tor2.ID(1, 0), 0.5e9) })
	e2.Go("b", func(p *sim.Proc) {
		Send(p, tor2, tor2.ID(0, 1), tor2.ID(1, 1), 0.5e9)
		soloEnd = p.Now()
	})
	e2.Run()
	if soloEnd != sim.Time(500*sim.Millisecond) {
		t.Errorf("independent link finished at %v, want 500ms", soloEnd)
	}
}
