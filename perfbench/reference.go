package main

import (
	"sort"
	"time"
)

// refNominal is the host-reference time, in seconds, of the nominal host
// that host times are scaled to: wall_s and setup_s read as seconds on a
// host where hostReference takes this long.
const refNominal = 0.05

// refSink keeps the reference loop's result live.
var refSink int

// hostReference times a fixed, standard-library-only workload shaped
// like the simulator's host work (goroutine handoffs over one-slot
// channels, allocation, map updates, a sort) and returns its host
// seconds. It shares no code with fusedcc, so a change to the program
// cannot move it; the host's speed, which drifts with other tenants'
// load, does. Dividing pass times by it taken in the same pass removes
// most of that drift.
//
//detlint:allow wallclock, rawgo -- host-speed reference; touches no simulation state, and the goroutine is joined before returning
func hostReference() float64 {
	t0 := time.Now()
	ping, pong := make(chan int, 1), make(chan int, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := range ping {
			pong <- v + 1
		}
	}()
	x := 0
	for i := 0; i < 20000; i++ {
		ping <- x
		x = <-pong
	}
	close(ping)
	<-done
	buckets := map[int][]int{}
	for i := 0; i < 100000; i++ {
		buckets[i%5000] = append(buckets[i%5000], i)
	}
	s := make([]int, 0, 200000)
	for i := 0; i < 200000; i++ {
		s = append(s, (i*7919)%100003)
	}
	sort.Ints(s)
	refSink = x + len(buckets) + s[0]
	return time.Since(t0).Seconds()
}
