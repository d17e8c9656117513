package experiments

import (
	"sync"
	"testing"
)

// quickSerial memoizes the serial (Parallel: 1) quick run of each BENCH
// sweep. Several tests assert on the same sweep — the shape tests read
// its rows and notes, the determinism matrix compares it against a
// worker-pool run — and the sweeps are deterministic by construction
// (that is the invariant the matrix enforces), so the package computes
// each serial sweep exactly once instead of once per consumer. Each
// sweep has its own entry, so parallel tests compute different sweeps
// concurrently and only wait on a sweep another test is already
// computing. The shared *Result must be treated as read-only by every
// caller.
var quickSerial = struct {
	mu sync.Mutex
	m  map[string]*quickEntry
}{m: map[string]*quickEntry{}}

type quickEntry struct {
	once sync.Once
	r    *Result
}

func quickSerialResult(name string, run func(Options) *Result) *Result {
	quickSerial.mu.Lock()
	e, ok := quickSerial.m[name]
	if !ok {
		e = &quickEntry{}
		quickSerial.m[name] = e
	}
	quickSerial.mu.Unlock()
	e.once.Do(func() { e.r = run(Options{Quick: true, Parallel: 1}) })
	return e.r
}

// parallelUnlessRace runs a heavy test in parallel with the others,
// except under the race detector: there each test's shadow memory is
// several times its heap, so these tests keep running one at a time.
func parallelUnlessRace(t *testing.T) {
	if !raceEnabled {
		t.Parallel()
	}
}
