package fusedcc

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fusedcc/internal/core"
	"fusedcc/internal/dlrm"
	"fusedcc/internal/graph"
	"fusedcc/internal/moe"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
	"fusedcc/internal/transformer"
)

var updateLowered = flag.Bool("update-lowered", false, "rewrite testdata/lowered golden files")

// loweredStack builds one two-layer case-study graph on a world.
type loweredStack struct {
	name  string
	build func(t *testing.T, w *shmem.World, pes []int) *graph.Graph
}

func loweredStacks() []loweredStack {
	dlrmCfg := dlrm.Config{
		TablesPerGPU: 8, TableRows: 1024, EmbeddingDim: 64,
		GlobalBatch: 512, AvgPooling: 8,
		BottomMLP: []int{64, 128, 64}, TopMLP: []int{128, 64, 1},
		SliceRows: 32, RowsPerWG: 32, Groups: 2, Seed: 1,
	}
	newDLRM := func(t *testing.T, w *shmem.World, pes []int) *dlrm.Model {
		m, err := dlrm.New(w, pes, dlrmCfg, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return []loweredStack{
		{"decoder", func(t *testing.T, w *shmem.World, pes []int) *graph.Graph {
			d, err := transformer.NewDecoder(w, pes,
				transformer.DecoderConfig{Layers: 2, Hidden: 4096, FFN: 16384, TileM: 4, Seed: 1}, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			return d.Graph()
		}},
		{"dlrm_fwd", func(t *testing.T, w *shmem.World, pes []int) *graph.Graph {
			return newDLRM(t, w, pes).ForwardGraph()
		}},
		{"dlrm_train", func(t *testing.T, w *shmem.World, pes []int) *graph.Graph {
			return newDLRM(t, w, pes).TrainGraph()
		}},
		{"moe", func(t *testing.T, w *shmem.World, pes []int) *graph.Graph {
			st, err := moe.NewStack(w, pes,
				moe.Config{TokensPerGPU: 128, ModelDim: 512, FFNDim: 1024, TopK: 2, TileM: 16, TileN: 32, Seed: 1},
				2, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			return st.Graph()
		}},
	}
}

// loweredPolicy is one lowering: the pass wrapper producing the lowered
// graph and its report text, plus the executor settings that select
// the same lowering.
type loweredPolicy struct {
	name   string
	mode   graph.Mode
	chunks int
	load   graph.LoadContext
}

func loweredPolicies() []loweredPolicy {
	return []loweredPolicy{
		{name: "compiled", mode: graph.Compiled},
		{name: "pipelined2", mode: graph.Pipelined, chunks: 2},
		{name: "pipelined4", mode: graph.Pipelined, chunks: 4},
		{name: "wavefront2", mode: graph.Wavefront, chunks: 2},
		{name: "wavefront4", mode: graph.Wavefront, chunks: 4},
		{name: "auto_idle", mode: graph.Auto},
		{name: "auto_q4", mode: graph.Auto, load: graph.LoadContext{QueueDepth: 4}},
		{name: "auto_degraded", mode: graph.Auto, load: graph.LoadContext{Degrade: graph.DegradeContext{Comm: 2}}},
	}
}

// lower runs the policy's pass wrapper and returns the lowered graph
// and its report text.
func (lp loweredPolicy) lower(g *graph.Graph) (*graph.Graph, string) {
	switch lp.mode {
	case graph.Compiled:
		lg, rep := graph.Compile(g, graph.CompileOptions{})
		return lg, rep.String()
	case graph.Pipelined:
		lg, rep := graph.Partition(g, lp.chunks)
		return lg, rep.String()
	case graph.Wavefront:
		lg, rep := graph.PartitionWavefront(g, lp.chunks)
		return lg, rep.String()
	}
	lg, rep := graph.SelectLoaded(g, lp.load)
	return lg, rep.String()
}

// renderLowered writes one tab-separated line per node (name, op name,
// input names in order) followed by the pass report.
func renderLowered(g *graph.Graph, report string) string {
	var b strings.Builder
	for _, n := range g.Nodes() {
		var ins []string
		for _, in := range n.Inputs() {
			ins = append(ins, in.Name())
		}
		fmt.Fprintf(&b, "%s\t%s\t%s\n", n.Name(), n.Op().OpName(), strings.Join(ins, ","))
	}
	b.WriteString("--\n")
	b.WriteString(report)
	return b.String()
}

func loweredWorld(t *testing.T) (*sim.Engine, *shmem.World, []int) {
	sys, err := NewCluster(2, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys.Engine, sys.World, sys.PEs()
}

// TestLoweredGraphsGolden pins the planner's output: for each two-layer
// stack on 2x4 and each lowering policy, the lowered graph's nodes, op
// names, input edges and pass report must match the golden file byte
// for byte. Each policy also runs through two executors on separate
// engines sharing one PassCache; the second (cache-hit) run must
// execute exactly the golden node list.
func TestLoweredGraphsGolden(t *testing.T) {
	for _, st := range loweredStacks() {
		for _, lp := range loweredPolicies() {
			st, lp := st, lp
			t.Run(st.name+"/"+lp.name, func(t *testing.T) {
				_, w, pes := loweredWorld(t)
				got := renderLowered(lp.lower(st.build(t, w, pes)))
				path := filepath.Join("testdata", "lowered", st.name+"_"+lp.name+".txt")
				if *updateLowered {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				wantBytes, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with -update-lowered)", err)
				}
				want := string(wantBytes)
				if got != want {
					t.Fatalf("lowered graph differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
				}

				var wantNodes []string
				for _, line := range strings.Split(want, "\n") {
					if line == "--" {
						break
					}
					f := strings.Split(line, "\t")
					wantNodes = append(wantNodes, f[0]+"\t"+f[1])
				}
				cache := graph.NewPassCache()
				var last *graph.Report
				for run := 0; run < 2; run++ {
					e, w, pes := loweredWorld(t)
					g := st.build(t, w, pes)
					x := graph.Executor{Chunks: lp.chunks, Streams: true, Cache: cache, Load: lp.load}
					e.Go("golden", func(p *sim.Proc) { last = x.Execute(p, g, lp.mode) })
					e.Run()
				}
				var gotNodes []string
				for _, nr := range last.Nodes {
					gotNodes = append(gotNodes, nr.Name+"\t"+nr.Op)
				}
				if strings.Join(gotNodes, "\n") != strings.Join(wantNodes, "\n") {
					t.Errorf("cache-hit executor run nodes differ from golden:\ngot:\n%s\nwant:\n%s",
						strings.Join(gotNodes, "\n"), strings.Join(wantNodes, "\n"))
				}
			})
		}
	}
}
