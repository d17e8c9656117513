package sim

import (
	"math"
	"testing"
	"testing/quick"
)

const gb = 1e9

func TestResourceSingleTransfer(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "link", 1*gb, nil)
	var done Time
	e.Go("t", func(p *Proc) {
		r.Transfer(p, 0.5*gb, 0)
		done = p.Now()
	})
	e.Run()
	want := Time(500 * Millisecond)
	if done != want {
		t.Errorf("transfer done at %v, want %v", done, want)
	}
	if r.TotalBytes() != 0.5*gb {
		t.Errorf("totalBytes = %g", r.TotalBytes())
	}
}

func TestResourceFairSharing(t *testing.T) {
	// Two equal transfers share the link: each takes twice as long.
	e := NewEngine()
	r := NewResource(e, "link", 1*gb, nil)
	var d1, d2 Time
	e.Go("a", func(p *Proc) { r.Transfer(p, 0.5*gb, 0); d1 = p.Now() })
	e.Go("b", func(p *Proc) { r.Transfer(p, 0.5*gb, 0); d2 = p.Now() })
	e.Run()
	want := Time(Second)
	if d1 != want || d2 != want {
		t.Errorf("done at %v/%v, want both %v", d1, d2, want)
	}
}

func TestResourceUnequalTransfersStaggered(t *testing.T) {
	// 1GB and 0.25GB on a 1GB/s link starting together: the small one
	// finishes at t=0.5s (shared 0.5GB/s); the big one then speeds up and
	// finishes at 0.5 + 0.75/1.0 = 1.25s.
	e := NewEngine()
	r := NewResource(e, "link", 1*gb, nil)
	var big, small Time
	e.Go("big", func(p *Proc) { r.Transfer(p, 1*gb, 0); big = p.Now() })
	e.Go("small", func(p *Proc) { r.Transfer(p, 0.25*gb, 0); small = p.Now() })
	e.Run()
	if got, want := small, Time(500*Millisecond); absT(got-want) > 10 {
		t.Errorf("small done at %v, want ~%v", got, want)
	}
	if got, want := big, Time(1250*Millisecond); absT(got-want) > 10 {
		t.Errorf("big done at %v, want ~%v", got, want)
	}
}

func TestResourcePerFlowCap(t *testing.T) {
	// A single flow capped at 0.1 GB/s on a 1 GB/s link.
	e := NewEngine()
	r := NewResource(e, "hbm", 1*gb, nil)
	var done Time
	e.Go("t", func(p *Proc) {
		r.Transfer(p, 0.1*gb, 0.1*gb)
		done = p.Now()
	})
	e.Run()
	if got, want := done, Time(Second); absT(got-want) > 10 {
		t.Errorf("capped transfer done at %v, want ~%v", got, want)
	}
}

func TestResourceCapSurplusRedistributed(t *testing.T) {
	// One capped flow (0.2 GB/s) + one uncapped on a 1 GB/s link: the
	// uncapped flow gets 0.8 GB/s.
	e := NewEngine()
	r := NewResource(e, "link", 1*gb, nil)
	var capped, free Time
	e.Go("capped", func(p *Proc) { r.Transfer(p, 0.2*gb, 0.2*gb); capped = p.Now() })
	e.Go("free", func(p *Proc) { r.Transfer(p, 0.8*gb, 0); free = p.Now() })
	e.Run()
	if got, want := capped, Time(Second); absT(got-want) > 10 {
		t.Errorf("capped done at %v, want ~%v", got, want)
	}
	if got, want := free, Time(Second); absT(got-want) > 10 {
		t.Errorf("free done at %v, want ~%v", got, want)
	}
}

func TestResourceEfficiencyCurve(t *testing.T) {
	// eff halves capacity when more than 1 flow is active.
	eff := func(n int) float64 {
		if n > 1 {
			return 0.5
		}
		return 1
	}
	e := NewEngine()
	r := NewResource(e, "hbm", 1*gb, eff)
	var d Time
	e.Go("a", func(p *Proc) { r.Transfer(p, 0.25*gb, 0); d = p.Now() })
	e.Go("b", func(p *Proc) { r.Transfer(p, 0.25*gb, 0) })
	e.Run()
	// Usable capacity 0.5 GB/s shared by 2 => 0.25 GB/s each => 1s.
	if got, want := d, Time(Second); absT(got-want) > 10 {
		t.Errorf("done at %v, want ~%v", got, want)
	}
}

func TestResourceSequentialBackToBack(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "link", 1*gb, nil)
	var done Time
	e.Go("t", func(p *Proc) {
		for i := 0; i < 4; i++ {
			r.Transfer(p, 0.25*gb, 0)
		}
		done = p.Now()
	})
	e.Run()
	if got, want := done, Time(Second); absT(got-want) > 40 {
		t.Errorf("4 back-to-back quarters done at %v, want ~%v", got, want)
	}
}

func TestResourceAsyncTransfer(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "nic", 2*gb, nil)
	var done Time
	fired := 0
	r.TransferAsync(1*gb, 0, func() { done = e.Now(); fired++ })
	r.TransferAsync(0, 0, func() { fired++ }) // zero bytes completes immediately
	e.Run()
	if fired != 2 {
		t.Fatalf("completions = %d, want 2", fired)
	}
	if got, want := done, Time(500*Millisecond); absT(got-want) > 10 {
		t.Errorf("async done at %v, want ~%v", got, want)
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "link", 1*gb, nil)
	e.Go("t", func(p *Proc) {
		r.Transfer(p, 0.5*gb, 0)   // busy 0.5s
		p.Sleep(500 * Millisecond) // idle 0.5s
	})
	e.Run()
	if u := r.Utilization(); math.Abs(u-0.5) > 0.01 {
		t.Errorf("utilization = %g, want ~0.5", u)
	}
}

// Property: for any set of transfers sharing a resource, the makespan is at
// least the serial lower bound (sum bytes / capacity) and at most the
// fully-serialized upper bound plus rounding.
func TestResourceMakespanBounds(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 64 {
			return true
		}
		e := NewEngine()
		r := NewResource(e, "link", 1*gb, nil)
		total := 0.0
		for _, s := range sizes {
			bytes := float64(s)*1e5 + 1 // up to ~6.5MB each
			total += bytes
			e.Go("t", func(p *Proc) { r.Transfer(p, bytes, 0) })
		}
		end := e.Run()
		lower := TransferTime(total, 1*gb)
		// Processor sharing completes all work exactly at the serial
		// bound when all flows start together.
		slack := Duration(len(sizes) + 2) // rounding per completion event
		return end >= Time(lower)-Time(slack) && end <= Time(lower)+Time(slack)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: transfers never complete early (bytes/capacity is a hard floor
// for any single flow, regardless of competing traffic).
func TestResourceNeverFasterThanCapacity(t *testing.T) {
	f := func(a, b uint16) bool {
		bytesA := float64(a)*1e5 + 1e5
		bytesB := float64(b)*1e5 + 1e5
		e := NewEngine()
		r := NewResource(e, "link", 1*gb, nil)
		var doneA Time
		e.Go("a", func(p *Proc) { r.Transfer(p, bytesA, 0); doneA = p.Now() })
		e.Go("b", func(p *Proc) { r.Transfer(p, bytesB, 0) })
		e.Run()
		return doneA >= Time(TransferTime(bytesA, 1*gb))-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func absT(d Time) Time {
	if d < 0 {
		return -d
	}
	return d
}

func TestServerSerializesFIFO(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "stream")
	var order []int
	var ends []Time
	for i := 0; i < 3; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			s.Acquire(p)
			order = append(order, i)
			p.Sleep(Duration(100))
			ends = append(ends, p.Now())
			s.Release()
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("admission order %v, want FIFO", order)
		}
	}
	for i, at := range ends {
		if want := Time(100 * (i + 1)); at != want {
			t.Errorf("holder %d released at %v, want %v (serialized)", i, at, want)
		}
	}
	if s.BusyTime() != 300 {
		t.Errorf("busy time %v, want 300", s.BusyTime())
	}
}

func TestServerBusyTimeExcludesIdleGaps(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "stream")
	e.Go("w", func(p *Proc) {
		s.Acquire(p)
		p.Sleep(100)
		s.Release()
		p.Sleep(400) // idle gap
		s.Acquire(p)
		p.Sleep(100)
		s.Release()
	})
	e.Run()
	if s.BusyTime() != 200 {
		t.Errorf("busy time %v, want 200", s.BusyTime())
	}
	if u := s.Utilization(); u < 0.33 || u > 0.34 {
		t.Errorf("utilization %f, want ~1/3", u)
	}
}

// TestServerQueueAccounting pins the wait-time and queue-depth
// statistics the serving layer reads: three holders of 100ns arriving
// together wait 0, 100, and 200ns, and mid-run the queue holds the
// not-yet-admitted acquirers behind the holder.
func TestServerQueueAccounting(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "stream")
	if s.QueueLen() != 0 || s.MeanWait() != 0 || s.Admissions() != 0 {
		t.Fatalf("fresh server has non-zero queue stats: len=%d mean=%v adm=%d",
			s.QueueLen(), s.MeanWait(), s.Admissions())
	}
	var depthAtFirstHold int
	for i := 0; i < 3; i++ {
		first := i == 0
		e.Go("w", func(p *Proc) {
			s.Acquire(p)
			if first {
				p.Yield() // let the other two queue behind the hold
				depthAtFirstHold = s.QueueLen()
			}
			p.Sleep(Duration(100))
			s.Release()
		})
	}
	e.Run()
	if depthAtFirstHold != 2 {
		t.Errorf("queue depth during first hold = %d, want 2 (holder excluded)", depthAtFirstHold)
	}
	if s.Admissions() != 3 {
		t.Errorf("admissions = %d, want 3", s.Admissions())
	}
	if s.TotalWait() != 300 {
		t.Errorf("total wait = %v, want 0+100+200 = 300", s.TotalWait())
	}
	if s.MeanWait() != 100 {
		t.Errorf("mean wait = %v, want 100", s.MeanWait())
	}
	if s.QueueLen() != 0 {
		t.Errorf("queue depth after drain = %d, want 0", s.QueueLen())
	}
}

func TestServerWaitIdleAndTransitions(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "stream")
	var transitions []bool
	s.OnBusy(func(b bool) { transitions = append(transitions, b) })
	for i := 0; i < 2; i++ {
		e.Go("w", func(p *Proc) {
			s.Acquire(p)
			p.Sleep(50)
			s.Release()
		})
	}
	var idleAt Time
	e.Go("sync", func(p *Proc) {
		p.Yield() // let the workers queue first
		s.WaitIdle(p)
		idleAt = p.Now()
	})
	e.Run()
	if idleAt != 100 {
		t.Errorf("WaitIdle returned at %v, want 100", idleAt)
	}
	want := []bool{true, false, true, false}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions %v, want %v", transitions, want)
		}
	}
	if s.Held() {
		t.Error("server still held after run")
	}
}
