package experiments

import (
	"fmt"
	"strings"
	"testing"

	"fusedcc/internal/graph"
)

// headlineConfigs are the three sweep configurations the ISSUE pins the
// select pass to: fusion's home turf (decoder scale-up), the comm-heavy
// scale-out DLRM, and the hybrid MoE stack.
var headlineConfigs = []struct {
	caseName    string
	nodes, gpus int
	layers      int
}{
	{"decoder", 1, 8, 2},
	{"dlrm", 8, 1, 2},
	{"moe", 2, 4, 2},
}

// TestAutoMatchesBestOnHeadlineConfigs is the satellite acceptance
// check: on each headline configuration, Auto's makespan must match the
// empirically fastest static mode (or tie within 5%).
func TestAutoMatchesBestOnHeadlineConfigs(t *testing.T) {
	if raceEnabled {
		t.Skip("headline sweep is too heavy under the race detector; run without -race")
	}
	t.Parallel()
	cases := map[string]stackCase{}
	for _, sc := range pipelineCases(true) {
		cases[sc.name] = sc
	}
	for _, hc := range headlineConfigs {
		hc := hc
		t.Run(fmt.Sprintf("%s-%dx%d-L%d", hc.caseName, hc.nodes, hc.gpus, hc.layers), func(t *testing.T) {
			t.Parallel()
			sc, ok := cases[hc.caseName]
			if !ok {
				t.Fatalf("unknown case %q", hc.caseName)
			}
			run := func(mode graph.Mode, chunks int) stackRun {
				r, err := runStack(sc, hc.nodes, hc.gpus, hc.layers, chunks, mode, quick)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			best := run(graph.Eager, 2).dur
			for _, s := range []stackRun{run(graph.Pipelined, 2), run(graph.Compiled, 2), run(graph.Wavefront, 2)} {
				if s.dur < best {
					best = s.dur
				}
			}
			auto := run(graph.Auto, 2)
			if float64(auto.dur) > (1+autoTolerance)*float64(best) {
				t.Errorf("auto %v vs best static %v: regret %.1f%% exceeds %.0f%% (decisions: %s)",
					auto.dur, best, 100*(float64(auto.dur)/float64(best)-1), 100*autoTolerance, auto.decisions)
			}
			if auto.decisions == "" || auto.decisions == "no selectable pairs" {
				t.Errorf("auto run recorded no decisions: %q", auto.decisions)
			}
		})
	}
}

// TestAutoExperimentShape runs the quick validation sweep and asserts
// the overall acceptance criterion: >= 80% of configurations within the
// tie window, every row annotated with decisions and regret.
func TestAutoExperimentShape(t *testing.T) {
	if raceEnabled {
		t.Skip("validation sweep is too heavy under the race detector; run without -race")
	}
	t.Parallel()
	res := quickSerialResult("auto", Auto)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	correct := 0
	for _, r := range res.Rows {
		if r.Baseline <= 0 || r.Fused <= 0 {
			t.Errorf("row %q has zero makespans", r.Label)
		}
		if float64(r.Fused) <= (1+autoTolerance)*float64(r.Baseline) {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(res.Rows)); frac < 0.8 {
		t.Errorf("auto matched best static on %d/%d configs (%.0f%%), want >= 80%%\n%s",
			correct, len(res.Rows), 100*frac, res)
	}
	if len(res.Notes) != len(res.Rows)+1 {
		t.Fatalf("notes = %d, want one per config plus the summary", len(res.Notes))
	}
	for _, n := range res.Notes[:len(res.Rows)] {
		if !strings.Contains(n, "decisions:") || !strings.Contains(n, "regret") {
			t.Errorf("config note missing decisions/regret: %q", n)
		}
	}
	if !strings.Contains(res.Notes[len(res.Notes)-1], "mispredict rate") {
		t.Errorf("summary note: %q", res.Notes[len(res.Notes)-1])
	}
}

// TestPipelinePointAutoMode verifies the single-configuration runner
// accepts Auto and annotates the result with the decision line.
func TestPipelinePointAutoMode(t *testing.T) {
	parallelUnlessRace(t)
	res, err := PipelinePoint(1, 4, 2, 2, graph.Auto, quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 stacks", len(res.Rows))
	}
	autoNotes := 0
	for _, n := range res.Notes {
		if strings.Contains(n, "auto:") && strings.Contains(n, "decisions:") {
			autoNotes++
		}
	}
	if autoNotes != 3 {
		t.Errorf("auto decision notes = %d, want 3\nnotes: %v", autoNotes, res.Notes)
	}
	for _, r := range res.Rows {
		if r.Fused <= 0 || r.Baseline <= 0 {
			t.Errorf("row %+v has zero makespans", r)
		}
	}
}

// TestSummarizeDecisions covers the note compaction helper.
func TestSummarizeDecisions(t *testing.T) {
	if got := summarizeDecisions(nil); got != "no selectable pairs" {
		t.Errorf("nil report: %q", got)
	}
	few := &graph.SelectReport{Decisions: []graph.Decision{
		{Compute: "mv", Choice: graph.Compiled},
		{Compute: "pool", Choice: graph.Pipelined, Chunks: 3},
	}}
	if got := summarizeDecisions(few); got != "mv->compiled, pool->pipelined@3" {
		t.Errorf("few decisions: %q", got)
	}
	var many graph.SelectReport
	for i := 0; i < 6; i++ {
		many.Decisions = append(many.Decisions, graph.Decision{Compute: fmt.Sprintf("p%d", i), Choice: graph.Compiled})
	}
	many.Decisions = append(many.Decisions, graph.Decision{Compute: "q", Choice: graph.Eager})
	got := summarizeDecisions(&many)
	if !strings.Contains(got, "6x compiled") || !strings.Contains(got, "1x eager") {
		t.Errorf("many decisions: %q", got)
	}
}
