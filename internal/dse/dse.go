// Package dse is the design-space-exploration engine of the TyTra
// flow. The space of design variants is modelled explicitly as a
// Space of named axes — lane replication, per-lane vectorisation
// degree, memory-execution form, clock frequency, and the device
// shelf (DeviceAxis, its per-target calibration memoised by
// ModelCache) — and an Engine evaluates its
// points through a worker pool with a memoised per-variant cost cache
// (the whole evaluation stack, costmodel.Estimate plus
// perf.Extract/EKIT, is pure, which makes both the parallelism and
// the caching sound). The pool is the caller plus Workers−1 helper
// goroutines that live for a whole search and are stopped before it
// returns; the memo is a dense table over small spaces and a sparse
// one over large spaces (celltable.go), so a budgeted search pays for
// the points it evaluates, never for the size of the space.
//
// Which points get evaluated is a pluggable Strategy, driven by the
// budgeted ask/tell search core of Engine.Search: the core repeatedly
// asks the strategy for a wave of variants, evaluates the wave on the
// pool, and tells the strategy the points, under an evaluation
// budget and a seeded RNG (see search.go). The strategies:
//
//   - Exhaustive covers the full cross product;
//   - WallPruned walks the lanes axis bottom-up and stops at the first
//     wall crossing — the computation wall where the device runs out of
//     a resource, or the communication walls where host or DRAM
//     bandwidth saturates (Fig 15);
//   - ParetoFrontier reports the throughput-versus-utilisation
//     trade-off curve over the full space;
//   - HillClimb and Anneal (adaptive.go) search large spaces under a
//     budget instead of enumerating them, deterministically for a
//     fixed seed at any worker count.
//
// Every evaluator is one assembly over a device shelf (deviceeval.go):
// NewEvaluator and NewSimEvaluator price a single target as a one-entry
// shelf over the caller's calibrated models, and
// NewDeviceModeEvaluatorCache (or its store-backed form) prices a
// shelf whose models a ModelCache calibrates on first use. The
// simulation-backed modes (EvalSim, EvalHybrid) add the pipeline
// simulator's cycles to each point. They come from the compiled
// design's structure (pipesim.CompiledDesign.Timing), computed once
// per lane count next to the module build, so scoring runs no data.
// Everything a point needs that does not depend on dv is memoised per
// lane count — the module, its IR digest (the kernel part of every
// evalstore estimate key) and its cost-model lowering
// (costmodel.Lower), shared by every device of the shelf, and, per
// device, the lowering bound to that device's model
// (costmodel.CompiledModel) and its stream inventory (perf.Inventory)
// — so with a store attached a warm point costs a key hash over
// digests, one record read and a Params assembly.
//
// A result over a lanes axis converts to the Sweep shape the report
// tables and Advise read (Result.Sweep); that conversion is pinned to
// the pre-engine serial implementation by the legacy equivalence test.
package dse

import (
	"repro/internal/costmodel"
	"repro/internal/perf"
	"repro/internal/tir"
)

// VariantBuilder produces the design variant with the given number of
// parallel kernel lanes.
type VariantBuilder func(lanes int) (*tir.Module, error)

// Point is one evaluated design variant. The engine allocates one per
// evaluated variant, so its size is the per-point memory of a sweep:
// 256 bytes, a Go size class (TestWarmModelPointAllocs checks it).
type Point struct {
	Lanes int
	Est   *costmodel.Estimate
	Par   perf.Params

	// Device is the name of the shelf entry that priced the point; empty
	// when the space has no device axis (the target is then implicit in
	// the evaluator and available as Est.Target).
	Device string

	// EKIT is the kernel-instance throughput (the EWGT axis of Fig 15).
	EKIT float64

	// Utilisation fractions, the vertical bars of Fig 15.
	UtilALUT, UtilReg, UtilBRAM, UtilDSP float64
	// UtilGMemBW and UtilHostBW are the fractions of sustained DRAM and
	// host bandwidth the variant demands when streaming at full rate.
	UtilGMemBW, UtilHostBW float64

	// Fits reports whether the variant fits the device (false beyond the
	// computation wall).
	Fits bool
	// Limiter is the wall of the point's EKIT breakdown (perf.Breakdown):
	// the dominant steady-state term under the point's form. The
	// breakdown's time terms are not kept; Par.EKIT(form) recomputes
	// them. Declared beside Fits, the two share one word.
	Limiter perf.Limiter

	// ModelEKIT always carries the cost model's EKIT prediction, even
	// when a simulation-backed evaluator ranked the point by SimEKIT
	// (so EKIT != ModelEKIT under -eval=sim).
	ModelEKIT float64
	// SimCycles and SimItems are the per-kernel-instance cycle and
	// work-item counts of the pipeline simulator; zero when the point
	// was scored by the cost model alone.
	SimCycles, SimItems int64
	// SimEKIT is the simulator-backed throughput, FD / SimCycles:
	// kernel-instances per second for a variant whose data is resident
	// — the compute-side rate the model's CPKI estimate predicts.
	SimEKIT float64
}

// PeakUtil is the binding resource fraction of the point: the largest
// of its four resource-utilisation bars. It is the cost objective of
// the Pareto frontier and the figure the CLI prints beside it.
func (p *Point) PeakUtil() float64 {
	max := p.UtilALUT
	for _, u := range [...]float64{p.UtilReg, p.UtilBRAM, p.UtilDSP} {
		if u > max {
			max = u
		}
	}
	return max
}

// Sweep is the outcome of exploring one variant family under one
// memory-execution form.
type Sweep struct {
	Form perf.Form
	// Points holds the evaluated variants in lanes-axis order.
	Points []Point
	// Lanes holds every lane count of the swept axis, evaluated or not;
	// nil for a sweep not converted from a Result.
	Lanes []int

	// ComputeWall is the smallest swept lane count that no longer fits
	// the device, or 0 if everything fits.
	ComputeWall int
	// HostWall is the smallest lane count whose host-bandwidth demand
	// exceeds the sustained link rate, or 0. Only meaningful for form A,
	// where every instance re-streams over the link.
	HostWall int
	// DRAMWall is the smallest lane count whose DRAM demand exceeds the
	// sustained rate, or 0.
	DRAMWall int

	// Best is the highest-EKIT variant that fits, or nil if none fit.
	Best *Point
}

// LaneCounts returns the 1..max sweep used by the Fig 15 experiment.
func LaneCounts(max int) []int {
	out := make([]int, 0, max)
	for l := 1; l <= max; l++ {
		out = append(out, l)
	}
	return out
}

// DivisorLaneCounts returns the lane counts in [1, max] that divide n
// evenly — the reshape-legal variants for a stream of n elements.
func DivisorLaneCounts(n int64, max int) []int {
	var out []int
	for l := 1; l <= max; l++ {
		if n%int64(l) == 0 {
			out = append(out, l)
		}
	}
	return out
}
