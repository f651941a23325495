// Package core prices design variants with a target's calibrated
// models (Fig 2, Fig 11): Cost evaluates one elaborated design variant,
// and Explore is the one entry point of the design-space exploration
// over a shelf of targets.
//
// The models are the output of the one-time per-target experiments of
// Fig 2: costmodel.Calibrate runs the synthesis probes and membw.Build
// the STREAM-style bandwidth benchmark (dse.ModelCache runs both once
// per target, and can persist the benchmark's table). Afterwards,
// costing a design variant is pure arithmetic over its IR, which is
// what makes the estimator fast enough to sit in a
// design-space-exploration loop (§VI-A reports 0.3 s per variant for
// the paper's Perl prototype; this implementation is far below that —
// see BenchmarkEstimatorSpeed).
// The other stages of Fig 11 are called directly: tir.Parse and
// elab.Elaborate, hdl.Emit, fabric's synthesis and pipesim.
package core

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/elab"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/tir"
)

// Report is the full costing of one design variant: the Fig 2 outputs.
type Report struct {
	Module    *tir.Module
	Est       *costmodel.Estimate
	Params    perf.Params
	Form      perf.Form
	EKIT      float64
	Breakdown perf.Breakdown
}

// Cost evaluates an elaborated design variant on mdl.Target with its
// calibrated cost model mdl and bandwidth model bw: resource estimate,
// Table I parameter extraction, and the EKIT throughput under the given
// memory-execution form.
func Cost(mdl *costmodel.Model, bw *membw.Model, d *elab.Design, w perf.Workload, form perf.Form) (*Report, error) {
	est, err := mdl.Estimate(d)
	if err != nil {
		return nil, err
	}
	// Form C is only available when the NDRange fits on chip (§III-5).
	if form == perf.FormC && !est.FormCFeasible() {
		return nil, fmt.Errorf("core: form C infeasible: working set %d bits + design BRAM %d bits exceed the device's %d BRAM bits",
			est.WorkingSetBits(), est.Used.BRAM, mdl.Target.Capacity.BRAM)
	}
	params, err := perf.Extract(est, bw, w)
	if err != nil {
		return nil, err
	}
	ekit, bd, err := params.EKIT(form)
	if err != nil {
		return nil, err
	}
	return &Report{Module: d.Module(), Est: est, Params: params, Form: form, EKIT: ekit, Breakdown: bd}, nil
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
// (dse.NewModelCacheStore) persists bandwidth tables and estimates
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
