package experiments

import (
	"strings"
	"testing"

	"fusedcc/internal/graph"
)

// TestWavefrontExperimentShape runs the quick wavefront validation
// sweep and asserts its structural guarantees: every row measured, the
// MoE configurations actually rewire layer-boundary joins, a deep-stack
// configuration beats per-pair pipelining, and any Auto wavefront pick
// sits inside the tie window.
func TestWavefrontExperimentShape(t *testing.T) {
	if raceEnabled {
		t.Skip("validation sweep is too heavy under the race detector; run without -race")
	}
	t.Parallel()
	res := quickSerialResult("wavefront", Wavefront)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if len(res.Notes) != len(res.Rows)+1 {
		t.Fatalf("notes = %d, want one per config plus the summary", len(res.Notes))
	}
	wins, joined := 0, 0
	for i, r := range res.Rows {
		if r.Baseline <= 0 || r.Fused <= 0 {
			t.Errorf("row %q has zero makespans", r.Label)
		}
		if r.Fused < r.Baseline {
			wins++
		}
		if strings.HasPrefix(r.Label, "moe") {
			if !strings.Contains(res.Notes[i], "join(s) rewired") || strings.Contains(res.Notes[i], "0 join(s) rewired") {
				t.Errorf("moe config did not rewire joins: %q", res.Notes[i])
			}
		}
		if strings.HasPrefix(r.Label, "decoder") && !strings.Contains(res.Notes[i], "0 join(s) rewired") {
			t.Errorf("decoder config must prove no joins (GEMV reads its full input): %q", res.Notes[i])
		}
		if strings.Contains(res.Notes[i], "join(s) rewired") && !strings.Contains(res.Notes[i], "0 join(s)") {
			joined++
		}
	}
	// The deep MoE stack on the comm-heavy scale-out shape is where
	// removing the L-1 layer-boundary drains must pay.
	if wins < 1 {
		t.Errorf("wavefront beat per-pair pipelining on %d configs, want >= 1\n%s", wins, res)
	}
	if joined < 1 {
		t.Errorf("no configuration rewired joins\n%s", res)
	}
	summary := res.Notes[len(res.Notes)-1]
	if !strings.Contains(summary, "wavefront beat per-pair pipelining") {
		t.Errorf("summary note: %q", summary)
	}
	// Any Auto wavefront pick outside the tie window is a model failure
	// the summary counts; the sweep must report zero.
	if !strings.Contains(summary, "0 outside the 5% tie window") {
		t.Errorf("auto wavefront picks regressed past the tie window: %q", summary)
	}
}

// TestPipelinePointWavefrontMode verifies the single-configuration
// runner accepts Wavefront and annotates the result with the
// join/overlap line.
func TestPipelinePointWavefrontMode(t *testing.T) {
	parallelUnlessRace(t)
	res, err := PipelinePoint(1, 4, 2, 2, graph.Wavefront, quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 stacks", len(res.Rows))
	}
	wfNotes := 0
	for _, n := range res.Notes {
		if strings.Contains(n, "wavefront:") && strings.Contains(n, "join(s) rewired") {
			wfNotes++
		}
	}
	if wfNotes != 3 {
		t.Errorf("wavefront notes = %d, want 3\nnotes: %v", wfNotes, res.Notes)
	}
}
