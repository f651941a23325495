// Package core is the TyTra back-end compiler façade (Fig 11): one
// handle that bundles the calibrated resource cost model, the empirical
// bandwidth model and the target description, and drives the
// Parse → Validate → Cost → Emit-HDL pipeline the command-line tools
// and examples use, plus Explore, the one entry point of the
// design-space exploration over a shelf of targets.
//
// Constructing a Compiler performs the one-time per-target work of
// Fig 2 — the synthesis probe calibration and the STREAM-style bandwidth
// benchmark; afterwards, costing a design variant is pure arithmetic
// over its IR, which is what makes the estimator fast enough to sit in a
// design-space-exploration loop (§VI-A reports 0.3 s per variant for the
// paper's Perl prototype; this implementation is far below that — see
// BenchmarkEstimatorSpeed).
package core

import (
	"fmt"
	"io"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/fabric"
	"repro/internal/hdl"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/pipesim"
	"repro/internal/tir"
)

// Compiler carries the per-target models.
type Compiler struct {
	Target *device.Target
	Model  *costmodel.Model
	BW     *membw.Model
}

// New calibrates the cost model and builds the bandwidth model for the
// target: the one-time benchmark experiments of Fig 2.
func New(target *device.Target) (*Compiler, error) {
	if target == nil {
		return nil, fmt.Errorf("core: nil target")
	}
	mdl, err := costmodel.Calibrate(target)
	if err != nil {
		return nil, fmt.Errorf("core: calibrating cost model: %w", err)
	}
	bw, err := membw.Build(target)
	if err != nil {
		return nil, fmt.Errorf("core: building bandwidth model: %w", err)
	}
	return &Compiler{Target: target, Model: mdl, BW: bw}, nil
}

// NewFromCalibration builds a compiler from an archived bandwidth
// benchmark table (see membw.SaveTable) instead of re-running the
// one-time sweep. The resource-model calibration is recomputed — it is
// microseconds of work — while the bandwidth table, the slow part, is
// reused.
func NewFromCalibration(target *device.Target, r io.Reader) (*Compiler, error) {
	if target == nil {
		return nil, fmt.Errorf("core: nil target")
	}
	mdl, err := costmodel.Calibrate(target)
	if err != nil {
		return nil, fmt.Errorf("core: calibrating cost model: %w", err)
	}
	bw, err := membw.LoadModel(target, r)
	if err != nil {
		return nil, fmt.Errorf("core: loading bandwidth calibration: %w", err)
	}
	return &Compiler{Target: target, Model: mdl, BW: bw}, nil
}

// Parse parses and validates TyTra-IR surface syntax.
func (c *Compiler) Parse(name, src string) (*tir.Module, error) {
	return tir.Parse(name, src)
}

// Report is the full costing of one design variant: the Fig 2 outputs.
type Report struct {
	Module    *tir.Module
	Est       *costmodel.Estimate
	Params    perf.Params
	Form      perf.Form
	EKIT      float64
	Breakdown perf.Breakdown
}

// Cost evaluates a design variant: resource estimate, Table I parameter
// extraction, and the EKIT throughput under the given memory-execution
// form.
func (c *Compiler) Cost(m *tir.Module, w perf.Workload, form perf.Form) (*Report, error) {
	est, err := c.Model.Estimate(m)
	if err != nil {
		return nil, err
	}
	// Form C is only available when the NDRange fits on chip (§III-5).
	if form == perf.FormC && !est.FormCFeasible() {
		return nil, fmt.Errorf("core: form C infeasible: working set %d bits + design BRAM %d bits exceed the device's %d BRAM bits",
			est.WorkingSetBits(), est.Used.BRAM, c.Target.Capacity.BRAM)
	}
	params, err := perf.Extract(est, c.BW, w)
	if err != nil {
		return nil, err
	}
	ekit, bd, err := params.EKIT(form)
	if err != nil {
		return nil, err
	}
	return &Report{Module: m, Est: est, Params: params, Form: form, EKIT: ekit, Breakdown: bd}, nil
}

// EmitHDL generates the synthesisable Verilog of the design variant.
func (c *Compiler) EmitHDL(m *tir.Module) (string, error) { return hdl.Emit(m) }

// Synthesize runs the synthesis substrate, producing the "actual"
// resource numbers the cost model is validated against (Table II).
func (c *Compiler) Synthesize(m *tir.Module) (*fabric.Netlist, error) {
	return fabric.New(c.Target).Synthesize(m)
}

// Simulate executes the design variant cycle-accurately on the given
// memory contents, producing outputs and the actual CPKI. Repeat calls
// on the same module hit pipesim's bounded design cache, so even the
// one-shot convenience path compiles at most once per module; loops
// and concurrent consumers should still hold a SimDesign.
func (c *Compiler) Simulate(m *tir.Module, mem map[string][]int64) (*pipesim.Result, error) {
	return pipesim.Run(m, mem)
}

// SimDesign validates and compiles the design variant once into an
// immutable, concurrency-safe artifact: iteration drivers,
// simulation-backed exploration loops and concurrent services share
// one SimDesign and execute it through cheap pooled instances
// (design.Run, or design.Acquire/Release around Instance.Run) instead
// of paying compilation per Simulate call or per goroutine.
func (c *Compiler) SimDesign(m *tir.Module) (*pipesim.CompiledDesign, error) {
	return pipesim.Compile(m)
}

// Explore runs one design-space exploration (Fig 15, §VI-A): the space
// (lanes × dv × form × fclk × device, see dse.NewSpace) is searched
// under st and opts on workers goroutines (<= 0 selects GOMAXPROCS),
// every point scored by mode (the EKIT model, the pipeline simulator,
// or the hybrid cross-check), with sim configuring the simulation
// workload and the cost-model implementation. form is the default when
// the space has no form axis.
//
// A single target is a one-entry shelf; a device axis must be built
// from the same shelf (dse.DeviceAxis(shelf...)). cache runs each
// target's one-time calibration (Fig 2) on first use, so explorations
// sharing a cache calibrate once, and a store-backed cache
// (dse.NewModelCacheStore) persists calibrations, estimates and
// simulator measurements across runs. A nil cache is a fresh in-memory
// one.
func Explore(mode dse.EvalMode, shelf []*device.Target, cache *dse.ModelCache, build dse.VariantBuilder,
	space *dse.Space, w perf.Workload, form perf.Form, st dse.Strategy, workers int,
	sim dse.SimConfig, opts dse.SearchOptions) (*dse.Result, error) {
	eval, err := dse.NewDeviceModeEvaluatorCache(mode, shelf, build, w, form, sim, cache)
	if err != nil {
		return nil, err
	}
	return dse.NewEngine(space, eval, workers).Search(st, opts)
}
