package main

import (
	"fmt"
	"math"

	"fusedcc"
	"fusedcc/internal/moe"
	"fusedcc/internal/transformer"
)

// funcStack is a small functional-mode stack: step runs it in a mode,
// outs snapshots its per-layer outputs on every GPU.
type funcStack struct {
	step func(p *fusedcc.Proc, mode fusedcc.ExecMode)
	outs func() [][]float32
}

// checkOfflineStacks verifies that small functional instances of the
// three case-study stacks give bit-identical outputs in all five modes.
func checkOfflineStacks(seed int64) (int, []string) {
	return checkStacks(seed, 2, 4, "decoder", "dlrm", "moe")
}

// checkDLRMStack is checkOfflineStacks for the serving stack on the
// serving shape.
func checkDLRMStack(seed int64) (int, []string) {
	return checkStacks(seed, serveNodes, 1, "dlrm")
}

// checkStacks runs each named stack once per mode, every run on a fresh
// functional system, so a mode that skipped work would leave zeroed
// outputs instead of the previous mode's.
func checkStacks(seed int64, nodes, gpus int, names ...string) (ops int, errs []string) {
	for _, name := range names {
		var want [][]float32
		for _, mode := range offlineModes {
			ops++
			got, err := functionalOutputs(name, seed, nodes, gpus, mode)
			switch {
			case err != nil:
				errs = append(errs, fmt.Sprintf("functional %s %v: %v", name, mode, err))
			case mode == fusedcc.Eager:
				want = got
				// The MoE stack never stages routed tokens, so its
				// functional outputs are zero in every mode; the other
				// stacks must produce data, or the comparison is empty.
				if name != "moe" && allZero(want) {
					errs = append(errs, fmt.Sprintf("functional %s eager: all outputs are zero", name))
				}
			default:
				if msg := firstMismatch(want, got); msg != "" {
					errs = append(errs, fmt.Sprintf("functional %s %v vs eager: %s", name, mode, msg))
				}
			}
		}
	}
	return ops, errs
}

func functionalOutputs(name string, seed int64, nodes, gpus int, mode fusedcc.ExecMode) ([][]float32, error) {
	sys, err := fusedcc.NewCluster(nodes, gpus, fusedcc.Options{Functional: true})
	if err != nil {
		return nil, err
	}
	st, err := functionalStack(sys, name, seed)
	if err != nil {
		return nil, err
	}
	sys.Run(func(p *fusedcc.Proc) { st.step(p, mode) })
	return st.outs(), nil
}

func allZero(bufs [][]float32) bool {
	for _, b := range bufs {
		for _, v := range b {
			if v != 0 {
				return false
			}
		}
	}
	return true
}

// functionalStack builds one small L=2 stack whose operands derive from
// seed.
func functionalStack(sys *fusedcc.System, name string, seed int64) (*funcStack, error) {
	pes := sys.PEs()
	switch name {
	case "decoder":
		d, err := sys.NewTransformerDecoder(transformer.DecoderConfig{Layers: 2, Hidden: 64, FFN: 128, TileM: 8, Seed: seed}, fusedcc.DefaultOperatorConfig())
		if err != nil {
			return nil, err
		}
		setChunks(d.Executor())
		return &funcStack{func(p *fusedcc.Proc, m fusedcc.ExecMode) { d.StepReport(p, m) }, func() (o [][]float32) {
			for _, b := range d.Blocks {
				for _, pe := range pes {
					o = append(o, append([]float32(nil), b.Out.On(pe).Data()...))
				}
			}
			return o
		}}, nil
	case "dlrm":
		cfg := fusedcc.DLRMConfig()
		cfg.TablesPerGPU, cfg.TableRows, cfg.EmbeddingDim = 2, 128, 16
		cfg.GlobalBatch, cfg.AvgPooling, cfg.SliceRows = 64, 4, 8
		cfg.Groups, cfg.Seed = 2, seed
		m, err := sys.NewDLRM(cfg, fusedcc.DefaultOperatorConfig())
		if err != nil {
			return nil, err
		}
		setChunks(m.Executor())
		return &funcStack{func(p *fusedcc.Proc, md fusedcc.ExecMode) { m.StepReport(p, md) }, func() (o [][]float32) {
			for _, op := range m.Ops {
				for _, pe := range pes {
					o = append(o, append([]float32(nil), op.Out.On(pe).Data()...))
				}
			}
			return o
		}}, nil
	case "moe":
		s, err := sys.NewMoEStack(moe.Config{TokensPerGPU: 16, ModelDim: 24, FFNDim: 32, TopK: 2, TileM: 4, TileN: 8, Seed: seed}, 2, fusedcc.DefaultOperatorConfig())
		if err != nil {
			return nil, err
		}
		setChunks(s.Executor())
		return &funcStack{func(p *fusedcc.Proc, m fusedcc.ExecMode) { s.StepReport(p, m) }, func() (o [][]float32) {
			for _, l := range s.Layers {
				for _, pe := range pes {
					o = append(o, append([]float32(nil), l.Op.Recv.On(pe).Data()...))
				}
			}
			return o
		}}, nil
	}
	return nil, fmt.Errorf("unknown stack %q", name)
}

func setChunks(x *fusedcc.GraphExecutor) {
	x.Chunks = offlineChunks
	x.Streams = true
}

// firstMismatch describes the first element where got differs from want
// bit for bit, or returns "".
func firstMismatch(want, got [][]float32) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d output buffers, want %d", len(got), len(want))
	}
	for b := range want {
		if len(want[b]) != len(got[b]) {
			return fmt.Sprintf("buffer %d has %d elements, want %d", b, len(got[b]), len(want[b]))
		}
		for i := range want[b] {
			if math.Float32bits(want[b][i]) != math.Float32bits(got[b][i]) {
				return fmt.Sprintf("buffer %d element %d: %g != %g", b, i, got[b][i], want[b][i])
			}
		}
	}
	return ""
}
