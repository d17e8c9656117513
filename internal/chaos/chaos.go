// Package chaos injects deterministic, seeded faults into a simulated
// platform: degraded links (bandwidth or propagation latency),
// straggler devices, and dropped ranks. Faults are armed as timed
// events on the platform's engines before the run starts, so a given
// (plan, seed, workload) triple replays byte-identically — the whole
// point of rehearsing failures in a DES instead of on hardware. The
// package also supplies the observation side of graceful degradation: a
// Sampler that derives per-link/per-device slowdown factors from
// resource byte counters (no oracle reads of the injected fault state)
// and feeds them to serving-layer health monitors for online
// re-selection.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"fusedcc/internal/netsim"
	"fusedcc/internal/platform"
	"fusedcc/internal/sim"
	"fusedcc/internal/workload"
)

// Kind enumerates the fault types.
type Kind int

const (
	// SlowLink degrades one node's scale-out links by Factor: bandwidth
	// by default, propagation latency with the Latency flag.
	SlowLink Kind = iota
	// Straggler slows one rank's device by Factor: every kernel's
	// compute and memory phases stretch accordingly.
	Straggler
	// DropRank makes one rank stop answering at Start: steps touching
	// it fail after a detection delay, and it never comes back.
	DropRank
)

func (k Kind) String() string {
	switch k {
	case SlowLink:
		return "slowlink"
	case Straggler:
		return "straggler"
	case DropRank:
		return "droprank"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one injected failure.
type Fault struct {
	Kind Kind
	// Target is a node id for SlowLink, a global rank (GPU) id for
	// Straggler and DropRank. Negative means "drawn at random" — see
	// Plan.Draw.
	Target int
	// Factor is the slowdown multiplier (> 1) for SlowLink and
	// Straggler; DropRank has none.
	Factor float64
	// Latency switches SlowLink from bandwidth to propagation-latency
	// degradation.
	Latency bool
	// Start is when the fault strikes; For bounds its window (0: the
	// rest of the run — always, for DropRank: dropped ranks stay dead).
	Start sim.Duration
	For   sim.Duration
}

func (f Fault) String() string {
	s := f.Kind.String()
	if f.Target < 0 {
		s += "@?"
	} else {
		s += fmt.Sprintf("@%d", f.Target)
	}
	if f.Kind != DropRank {
		s += fmt.Sprintf(",x%g", f.Factor)
	}
	if f.Latency {
		s += ",latency"
	}
	if f.Start > 0 {
		s += fmt.Sprintf(",start=%v", f.Start)
	}
	if f.For > 0 {
		s += fmt.Sprintf(",for=%v", f.For)
	}
	return s
}

// Plan is an ordered set of faults for one run.
type Plan struct {
	Faults []Fault
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Faults) == 0 }

func (p Plan) String() string {
	if p.Empty() {
		return "none"
	}
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ";")
}

// Draw resolves randomized targets ("?" in the spec grammar) with a
// seeded RNG: SlowLink draws a node in [0, nodes), the rank faults a
// rank in [0, ranks). Draws consume the stream in fault order, so a
// given (plan, seed) pair resolves identically regardless of sweep
// parallelism. Fixed targets are untouched.
func (p Plan) Draw(seed int64, nodes, ranks int) Plan {
	out := Plan{Faults: append([]Fault(nil), p.Faults...)}
	rng := workload.Rand(seed)
	for i := range out.Faults {
		f := &out.Faults[i]
		if f.Target >= 0 {
			continue
		}
		if f.Kind == SlowLink {
			f.Target = rng.Intn(nodes)
		} else {
			f.Target = rng.Intn(ranks)
		}
	}
	return out
}

// Parse reads the -faults spec grammar: semicolon-separated faults,
// each "kind@target[,option...]". Target is a node id (slowlink), a
// rank id (straggler, droprank), or "?" to draw one at seed time.
// Options: "x<factor>" (slowdown multiplier, default 4), "latency"
// (slowlink only: scale propagation latency instead of bandwidth),
// "start=<dur>" and "for=<dur>" with time.ParseDuration syntax.
// "none" (or an empty spec) is the empty plan.
//
//	slowlink@3,x8,start=1ms,for=5ms   node 3's NIC at 1/8 bandwidth
//	slowlink@0,x4,latency             node 0 latency x4 from t=0
//	straggler@1,x3,start=2ms          rank 1 kernels 3x slower
//	droprank@2,start=4ms              rank 2 stops answering at 4ms
func Parse(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return p, nil
	}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := parseFault(part)
		if err != nil {
			return Plan{}, err
		}
		p.Faults = append(p.Faults, f)
	}
	return p, nil
}

func parseFault(spec string) (Fault, error) {
	fields := strings.Split(spec, ",")
	head := fields[0]
	kind, target, ok := strings.Cut(head, "@")
	if !ok {
		return Fault{}, fmt.Errorf("chaos: fault %q: want kind@target", spec)
	}
	f := Fault{Factor: 4}
	switch kind {
	case "slowlink":
		f.Kind = SlowLink
	case "straggler":
		f.Kind = Straggler
	case "droprank":
		f.Kind = DropRank
		f.Factor = 0
	default:
		return Fault{}, fmt.Errorf("chaos: fault %q: unknown kind %q (want slowlink, straggler, or droprank)", spec, kind)
	}
	if target == "?" {
		f.Target = -1
	} else {
		t, err := strconv.Atoi(target)
		if err != nil || t < 0 {
			return Fault{}, fmt.Errorf("chaos: fault %q: bad target %q (want a non-negative id or ?)", spec, target)
		}
		f.Target = t
	}
	for _, opt := range fields[1:] {
		opt = strings.TrimSpace(opt)
		switch {
		case opt == "latency":
			if f.Kind != SlowLink {
				return Fault{}, fmt.Errorf("chaos: fault %q: latency only applies to slowlink", spec)
			}
			f.Latency = true
		case strings.HasPrefix(opt, "x"):
			v, err := strconv.ParseFloat(opt[1:], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 1 {
				return Fault{}, fmt.Errorf("chaos: fault %q: bad factor %q (want x<float> > 1)", spec, opt)
			}
			if f.Kind == DropRank {
				return Fault{}, fmt.Errorf("chaos: fault %q: droprank takes no factor", spec)
			}
			f.Factor = v
		case strings.HasPrefix(opt, "start="):
			d, err := parseDur(strings.TrimPrefix(opt, "start="))
			if err != nil {
				return Fault{}, fmt.Errorf("chaos: fault %q: %v", spec, err)
			}
			f.Start = d
		case strings.HasPrefix(opt, "for="):
			d, err := parseDur(strings.TrimPrefix(opt, "for="))
			if err != nil {
				return Fault{}, fmt.Errorf("chaos: fault %q: %v", spec, err)
			}
			if f.Kind == DropRank {
				return Fault{}, fmt.Errorf("chaos: fault %q: droprank has no window (dropped ranks stay dead)", spec)
			}
			f.For = d
		default:
			return Fault{}, fmt.Errorf("chaos: fault %q: unknown option %q", spec, opt)
		}
	}
	return f, nil
}

func parseDur(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	return sim.Duration(d), nil
}

// Health is the shared liveness record fault-aware backends consult:
// the injector marks ranks dead, serving steps check their participant
// lists against it.
type Health struct {
	at    map[int]sim.Time
	order []int // death order
}

// NewHealth returns an all-alive record.
func NewHealth() *Health { return &Health{at: make(map[int]sim.Time)} }

// MarkDead records that rank stopped answering at t. Idempotent: a
// second death keeps the first timestamp.
func (h *Health) MarkDead(rank int, t sim.Time) {
	if _, ok := h.at[rank]; ok {
		return
	}
	h.at[rank] = t
	h.order = append(h.order, rank)
}

// Dead reports whether rank has dropped, and since when.
func (h *Health) Dead(rank int) (sim.Time, bool) {
	t, ok := h.at[rank]
	return t, ok
}

// AnyDead scans ranks in order and returns the first dead one.
func (h *Health) AnyDead(ranks []int) (rank int, since sim.Time, dead bool) {
	for _, r := range ranks {
		if t, ok := h.at[r]; ok {
			return r, t, true
		}
	}
	return 0, 0, false
}

// Survivors filters ranks down to the live ones, preserving order.
func (h *Health) Survivors(ranks []int) []int {
	out := make([]int, 0, len(ranks))
	for _, r := range ranks {
		if _, ok := h.at[r]; !ok {
			out = append(out, r)
		}
	}
	return out
}

// DeadRanks lists the dropped ranks in ascending id order.
func (h *Health) DeadRanks() []int {
	out := append([]int(nil), h.order...)
	sort.Ints(out)
	return out
}

// RankDeadError reports a step that could not complete because a
// participating rank dropped.
type RankDeadError struct {
	Rank  int
	Since sim.Time
}

func (e *RankDeadError) Error() string {
	return fmt.Sprintf("chaos: rank %d down since %v", e.Rank, e.Since)
}

// Injector holds a plan's armed state: the shared Health record and an
// arm-time log of what was scheduled.
type Injector struct {
	Health *Health
	// Log describes each armed fault, in plan order.
	Log []string
}

// Arm validates plan against pl and schedules every fault as timed
// events on the owning engines. It must run before the simulation
// starts. Randomized targets must already be resolved (Plan.Draw).
// Faults with a bounded window also schedule their revert event; note
// the engine runs until all events fire, so a window outlasting the
// workload extends the simulated makespan to its end.
func Arm(pl *platform.Platform, plan Plan) (*Injector, error) {
	inj := &Injector{Health: NewHealth()}
	for i, f := range plan.Faults {
		if f.Target < 0 {
			return nil, fmt.Errorf("chaos: fault %d (%v): random target not drawn (call Plan.Draw first)", i, f)
		}
		var err error
		switch f.Kind {
		case SlowLink:
			err = armSlowLink(pl, f)
		case Straggler:
			err = armStraggler(pl, f)
		case DropRank:
			err = armDropRank(pl, f, inj.Health)
		default:
			err = fmt.Errorf("unknown kind %v", f.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: fault %d (%v): %w", i, f, err)
		}
		inj.Log = append(inj.Log, f.String())
	}
	return inj, nil
}

func armSlowLink(pl *platform.Platform, f Fault) error {
	if f.Factor <= 1 {
		return fmt.Errorf("factor must be > 1, got %g", f.Factor)
	}
	net := pl.Network()
	if net == nil {
		return fmt.Errorf("needs a multi-node platform")
	}
	if f.Target >= pl.Nodes() {
		return fmt.Errorf("node %d out of range (%d nodes)", f.Target, pl.Nodes())
	}
	e := pl.World().EngineFor(f.Target)
	if f.Latency {
		ls, ok := net.(netsim.LatencyScaler)
		if !ok {
			return fmt.Errorf("network %T cannot scale latency", net)
		}
		e.At(sim.Time(f.Start), func() { ls.SetLatencyScale(f.Target, f.Factor) })
		if f.For > 0 {
			e.At(sim.Time(f.Start+f.For), func() { ls.SetLatencyScale(f.Target, 1) })
		}
		return nil
	}
	enum, ok := net.(netsim.LinkEnumerator)
	if !ok {
		return fmt.Errorf("network %T cannot enumerate links", net)
	}
	var links []*sim.Resource
	for _, l := range enum.Links() {
		if l.From == f.Target {
			links = append(links, l.Res)
		}
	}
	if len(links) == 0 {
		return fmt.Errorf("node %d has no links", f.Target)
	}
	scale := 1 / f.Factor
	e.At(sim.Time(f.Start), func() {
		for _, r := range links {
			r.SetRateScale(scale)
		}
	})
	if f.For > 0 {
		e.At(sim.Time(f.Start+f.For), func() {
			for _, r := range links {
				r.SetRateScale(1)
			}
		})
	}
	return nil
}

func armStraggler(pl *platform.Platform, f Fault) error {
	if f.Factor <= 1 {
		return fmt.Errorf("factor must be > 1, got %g", f.Factor)
	}
	if f.Target >= pl.NDevices() {
		return fmt.Errorf("rank %d out of range (%d ranks)", f.Target, pl.NDevices())
	}
	dev := pl.Device(f.Target)
	e := pl.World().EngineFor(pl.NodeOf(f.Target))
	e.At(sim.Time(f.Start), func() { dev.SetServiceScale(f.Factor) })
	if f.For > 0 {
		e.At(sim.Time(f.Start+f.For), func() { dev.SetServiceScale(1) })
	}
	return nil
}

func armDropRank(pl *platform.Platform, f Fault, h *Health) error {
	if f.Target >= pl.NDevices() {
		return fmt.Errorf("rank %d out of range (%d ranks)", f.Target, pl.NDevices())
	}
	e := pl.World().EngineFor(pl.NodeOf(f.Target))
	e.At(sim.Time(f.Start), func() { h.MarkDead(f.Target, e.Now()) })
	return nil
}
