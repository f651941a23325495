// Package core is the TyTra back-end compiler façade (Fig 11): one
// handle that bundles the calibrated resource cost model, the empirical
// bandwidth model and the target description, and drives the
// Parse → Elaborate → Cost → Emit-HDL pipeline the command-line tools
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

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/elab"
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

// Parse parses TyTra-IR surface syntax and elaborates the module: the
// design every other stage of the compiler reads.
func (c *Compiler) Parse(name, src string) (*elab.Design, error) {
	m, err := tir.Parse(name, src)
	if err != nil {
		return nil, err
	}
	return elab.Elaborate(m)
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

// Cost evaluates an elaborated design variant: resource estimate,
// Table I parameter extraction, and the EKIT throughput under the given
// memory-execution form.
func (c *Compiler) Cost(d *elab.Design, w perf.Workload, form perf.Form) (*Report, error) {
	est, err := c.Model.Estimate(d)
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
	return &Report{Module: d.Module(), Est: est, Params: params, Form: form, EKIT: ekit, Breakdown: bd}, nil
}

// EmitHDL generates the synthesisable Verilog of the design variant.
func (c *Compiler) EmitHDL(d *elab.Design) (string, error) { return hdl.Emit(d) }

// Synthesize runs the synthesis substrate, producing the "actual"
// resource numbers the cost model is validated against (Table II).
func (c *Compiler) Synthesize(d *elab.Design) *fabric.Netlist {
	return fabric.New(c.Target).Synthesize(d)
}

// Simulate executes the design variant cycle-accurately on the given
// memory contents, producing outputs and the actual CPKI. It compiles
// the design on every call; a caller that runs one variant many times
// should hold a pipesim.Compile design and one Instance of it.
func (c *Compiler) Simulate(d *elab.Design, mem map[string][]int64) (*pipesim.Result, error) {
	cd, err := pipesim.Compile(d)
	if err != nil {
		return nil, err
	}
	return cd.Run(mem)
}

// Explore runs one design-space exploration (Fig 15, §VI-A): the space
// (lanes × dv × form × fclk × device, see dse.NewSpace) is searched
// under st and opts on workers goroutines (<= 0 selects GOMAXPROCS),
// every point scored by mode (the EKIT model, the pipeline simulator,
// or the hybrid cross-check). form is the default when the space has
// no form axis.
//
// A single target is a one-entry shelf; a device axis must be built
// from the same shelf (dse.DeviceAxis(shelf...)). cache runs each
// target's one-time calibration (Fig 2) on first use, so explorations
// sharing a cache calibrate once, and a store-backed cache
// (dse.NewModelCacheStore) persists calibrations and estimates
// across runs. A nil cache is a fresh in-memory one.
func Explore(mode dse.EvalMode, shelf []*device.Target, cache *dse.ModelCache, build dse.VariantBuilder,
	space *dse.Space, w perf.Workload, form perf.Form, st dse.Strategy, workers int,
	opts dse.SearchOptions) (*dse.Result, error) {
	eval, err := dse.NewDeviceModeEvaluatorCache(mode, shelf, build, w, form, dse.SimConfig{}, cache)
	if err != nil {
		return nil, err
	}
	return dse.NewEngine(space, eval, workers).Search(st, opts)
}
