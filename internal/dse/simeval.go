package dse

import (
	"fmt"
	"math"

	"repro/internal/kernels"
	"repro/internal/tir"
)

// EvalMode selects which scorer ranks the variants of an exploration:
// the cost model alone (the paper's flow), the cycle-accurate pipeline
// simulator, or both — model-ranked with the simulated cycles recorded
// per point for the calibration cross-check.
type EvalMode int

const (
	// EvalModel scores points by the EKIT cost model (NewEvaluator).
	EvalModel EvalMode = iota
	// EvalSim scores points by simulated cycles: EKIT becomes
	// FD / simulated cycles-per-instance (NewSimEvaluator).
	EvalSim
	// EvalHybrid keeps the model's EKIT ranking and records the
	// simulated cycles alongside it, feeding the report.Calibration
	// cross-check.
	EvalHybrid
)

// String names the mode as the -eval flag spells it.
func (m EvalMode) String() string {
	switch m {
	case EvalModel:
		return "model"
	case EvalSim:
		return "sim"
	case EvalHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("eval-?(%d)", int(m))
}

// EvalModeNames lists the canonical -eval flag values.
func EvalModeNames() []string { return []string{"model", "sim", "hybrid"} }

// ParseEvalMode resolves an -eval flag value.
func ParseEvalMode(s string) (EvalMode, error) {
	switch s {
	case "model", "":
		return EvalModel, nil
	case "sim", "simulate", "simulator":
		return EvalSim, nil
	case "hybrid":
		return EvalHybrid, nil
	}
	return 0, fmt.Errorf("dse: unknown evaluation mode %q (have: %v)", s, EvalModeNames())
}

// SimConfig configures the simulation-backed evaluators. The zero
// value is ready to use.
//
// Sim and hybrid points are scored from the compiled design's
// structure (pipesim.CompiledDesign.Timing), so no workload runs and
// Seed and Inputs no longer affect scoring. They remain only because
// the benchmark harness (bench/) still sets them; the benchmark change
// on ROADMAP.md (item 2) removes them.
type SimConfig struct {
	// Seed is unused.
	Seed int64
	// Inputs is never called.
	Inputs func(m *tir.Module, seed int64) (map[string][]int64, error)
}

// SimInputs generates the deterministic host workload for a variant
// module: every input stream's memory object that no output port
// produces is filled with the repo's shared LCG sequence (kernels.LCG)
// masked to the element width. Scoring never calls it — the simulated
// cycle count is data-independent, and pipesim.CompiledDesign.Timing
// fails exactly where a run on these inputs fails — so it serves
// callers that execute a variant for its outputs.
func SimInputs(m *tir.Module, seed int64) (map[string][]int64, error) {
	produced := map[string]bool{}
	for _, port := range m.Ports {
		if port.Dir != tir.DirOut {
			continue
		}
		so := m.Stream(port.Stream)
		if so == nil {
			return nil, fmt.Errorf("dse: port @%s has no stream object", port.Name)
		}
		produced[so.Mem] = true
	}
	mem := map[string][]int64{}
	rng := kernels.NewLCG(seed)
	for _, port := range m.Ports {
		if port.Dir != tir.DirIn {
			continue
		}
		so := m.Stream(port.Stream)
		if so == nil {
			return nil, fmt.Errorf("dse: port @%s has no stream object", port.Name)
		}
		if produced[so.Mem] {
			continue // fed by another PE's output, not by the host
		}
		if _, done := mem[so.Mem]; done {
			continue
		}
		mo := m.MemObject(so.Mem)
		if mo == nil {
			return nil, fmt.Errorf("dse: stream %%%s has no memory object", so.Name)
		}
		data := make([]int64, mo.Size)
		mask := int64(mo.Elem.Mask())
		for i := range data {
			data[i] = int64(rng.Next()) & mask
		}
		mem[so.Mem] = data
	}
	return mem, nil
}

// attachSim decorates a model-side point with the simulated cycles
// and items of its lane count, and the sim-backed throughput at the
// point's (possibly fclk-overridden) FD. Under EvalSim the simulated
// throughput replaces the model's ranking score.
func attachSim(p *Point, mode EvalMode, lanes int, cycles, items int64) error {
	p.SimCycles, p.SimItems = cycles, items
	// Par.FD already reflects any fclk-axis override, so the model and
	// the simulator price the variant at the same frequency.
	p.SimEKIT = p.Par.FD / float64(cycles)
	if math.IsNaN(p.SimEKIT) || math.IsInf(p.SimEKIT, 0) || p.SimEKIT <= 0 {
		return fmt.Errorf("dse: %d-lane variant: degenerate simulated throughput %v (FD=%v, cycles=%d)",
			lanes, p.SimEKIT, p.Par.FD, cycles)
	}
	if mode == EvalSim {
		p.EKIT = p.SimEKIT
	}
	return nil
}
