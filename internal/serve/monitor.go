package serve

import (
	"fmt"
	"strings"
)

// Monitor smooths any named series with an exponentially weighted
// moving average. Health monitoring feeds it service-rate ratios
// (nominal / measured rate: 1 is healthy, 8 an eight-fold slowdown)
// per link, NIC, or device and reads back the worst offender to
// re-price plans; the serving harness feeds it queue depths. The
// monitor is pure bookkeeping: it never touches simulation state, and
// its iteration order is first-observation order, so identical
// observation sequences give byte-identical reports regardless of map
// layout.
type Monitor struct {
	alpha float64
	names []string
	ewma  map[string]float64
}

// NewMonitor returns a monitor smoothing with the given EWMA weight in
// (0, 1]: 1 tracks the latest sample exactly, smaller values damp
// transients harder.
func NewMonitor(alpha float64) *Monitor {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("serve: monitor alpha must be in (0, 1], got %g", alpha))
	}
	return &Monitor{alpha: alpha, ewma: make(map[string]float64)}
}

// Observe folds one slowdown sample for name into its EWMA. The first
// observation seeds the average directly.
func (m *Monitor) Observe(name string, slowdown float64) {
	if prev, ok := m.ewma[name]; ok {
		m.ewma[name] = prev + m.alpha*(slowdown-prev)
		return
	}
	m.names = append(m.names, name)
	m.ewma[name] = slowdown
}

// Slowdown returns name's current smoothed slowdown (1 when never
// observed).
func (m *Monitor) Slowdown(name string) float64 {
	if v, ok := m.ewma[name]; ok {
		return v
	}
	return 1
}

// Worst returns the largest smoothed slowdown over all series whose
// name starts with prefix, and the name carrying it. ("", 1) when no
// matching series exists. Ties break toward the earliest-observed
// series, keeping the report deterministic.
func (m *Monitor) Worst(prefix string) (string, float64) {
	name, worst := "", 1.0
	for _, n := range m.names {
		if !strings.HasPrefix(n, prefix) {
			continue
		}
		if v := m.ewma[n]; v > worst {
			name, worst = n, v
		}
	}
	return name, worst
}

// String reports every series in first-observation order.
func (m *Monitor) String() string {
	if len(m.names) == 0 {
		return "monitor: no observations"
	}
	parts := make([]string, len(m.names))
	for i, n := range m.names {
		parts[i] = fmt.Sprintf("%s x%.2f", n, m.ewma[n])
	}
	return "monitor: " + strings.Join(parts, ", ")
}
