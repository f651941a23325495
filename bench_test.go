// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (see the per-experiment index in
// DESIGN.md), plus ablation benchmarks for the design choices the cost
// model rests on. Custom metrics carry the headline quantities so the
// shape of each result is visible in the benchmark output:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/hlsbase"
	"repro/internal/kernels"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/pipesim"
	"repro/internal/tir"
)

// BenchmarkFig9ResourceCurves regenerates the Fig 9 resource cost
// curves: the quadratic divider fit from three synthesis points and the
// piece-wise-linear multiplier behaviour. Metrics: the 24-bit
// interpolation check (paper: estimate 654 vs actual 652).
func BenchmarkFig9ResourceCurves(b *testing.B) {
	var r *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig9()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Check24Est), "est24_ALUTs")
	b.ReportMetric(float64(r.Check24Actual), "actual24_ALUTs")
}

// BenchmarkFig10StreamBandwidth regenerates the Fig 10 sustained
// bandwidth table on the Virtex-7 board model. Metrics: the contiguous
// plateau and the strided floor in Gbps (paper: ~6.3 and ~0.07), whose
// ratio is the two-orders-of-magnitude contiguity penalty.
func BenchmarkFig10StreamBandwidth(b *testing.B) {
	var r *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig10()
		if err != nil {
			b.Fatal(err)
		}
	}
	var plateau, floor float64
	for _, s := range r.Samples {
		if s.Dim == 6000 {
			if s.Pattern == tir.PatternContiguous {
				plateau = s.Gbps()
			} else {
				floor = s.Gbps()
			}
		}
	}
	b.ReportMetric(plateau, "contig_Gbps")
	b.ReportMetric(floor, "strided_Gbps")
}

// BenchmarkFig15VariantSweep regenerates the Fig 15 SOR lane sweep under
// forms A and B. Metrics: the three wall positions (paper: host ~4,
// compute 6, DRAM ~16).
func BenchmarkFig15VariantSweep(b *testing.B) {
	var r *experiments.Fig15Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig15()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.A.HostWall), "host_wall_lanes")
	b.ReportMetric(float64(r.A.ComputeWall), "compute_wall_lanes")
	b.ReportMetric(float64(r.B.DRAMWall), "dram_wall_lanes")
}

// BenchmarkTable2Accuracy regenerates Table II at the paper-scale
// workloads: estimate, synthesise and simulate all three kernels.
// Metric: the worst percent error across all fifteen cells (paper: 13%,
// mostly low single digits).
func BenchmarkTable2Accuracy(b *testing.B) {
	var r *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for _, row := range r.Rows {
		for _, e := range row.Errs() {
			if e > worst {
				worst = e
			}
		}
	}
	b.ReportMetric(worst, "worst_pct_err")
}

// BenchmarkFig17CaseStudyRuntime regenerates the Fig 17 runtime
// comparison. Metrics: tytra's best speedups over maxJ and cpu (paper:
// 3.9x and ~2.6x).
func BenchmarkFig17CaseStudyRuntime(b *testing.B) {
	var r *experiments.CaseStudyResult
	for i := 0; i < b.N; i++ {
		r = experiments.CaseStudy()
	}
	bestVsMaxJ, bestVsCPU := 0.0, 0.0
	for _, row := range r.Rows {
		if v := row.Normalised[hlsbase.PlatformMaxJ] / row.Normalised[hlsbase.PlatformTytra]; v > bestVsMaxJ {
			bestVsMaxJ = v
		}
		if v := 1 / row.Normalised[hlsbase.PlatformTytra]; v > bestVsCPU {
			bestVsCPU = v
		}
	}
	b.ReportMetric(bestVsMaxJ, "tytra_vs_maxJ_x")
	b.ReportMetric(bestVsCPU, "tytra_vs_cpu_x")
}

// BenchmarkFig18CaseStudyEnergy regenerates the Fig 18 energy
// comparison. Metrics: tytra's best energy advantages (paper: up to 11x
// vs cpu, 2.9x vs maxJ).
func BenchmarkFig18CaseStudyEnergy(b *testing.B) {
	var r *experiments.CaseStudyResult
	for i := 0; i < b.N; i++ {
		r = experiments.CaseStudy()
	}
	bestVsCPU, bestVsMaxJ := 0.0, 0.0
	for _, row := range r.Rows {
		if v := 1 / row.EnergyNorm[hlsbase.PlatformTytra]; v > bestVsCPU {
			bestVsCPU = v
		}
		if v := row.EnergyNorm[hlsbase.PlatformMaxJ] / row.EnergyNorm[hlsbase.PlatformTytra]; v > bestVsMaxJ {
			bestVsMaxJ = v
		}
	}
	b.ReportMetric(bestVsCPU, "energy_vs_cpu_x")
	b.ReportMetric(bestVsMaxJ, "energy_vs_maxJ_x")
}

// BenchmarkEstimatorSpeed measures the §VI-A claim directly: the time to
// cost one design variant (paper's Perl prototype: 0.3 s; SDAccel's
// preliminary estimate: ~70 s). ns/op here IS the per-variant latency.
func BenchmarkEstimatorSpeed(b *testing.B) {
	mdl, err := costmodel.Calibrate(device.StratixVGSD8())
	if err != nil {
		b.Fatal(err)
	}
	m, err := kernels.SORSpec{IM: 15, JM: 10, KM: 96096, Lanes: 4}.Module()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mdl.Estimate(elaborate(b, m)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimatorEndToEnd includes variant construction (the lowering
// a DSE loop pays per point).
func BenchmarkEstimatorEndToEnd(b *testing.B) {
	mdl, err := costmodel.Calibrate(device.StratixVGSD8())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := kernels.SORSpec{IM: 15, JM: 10, KM: 96096, Lanes: 1 + i%16}.Module()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mdl.Estimate(elaborate(b, m)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMulFitFamily quantifies the Fig 9 design choice:
// fitting the multiplier ALUT curve with a single quadratic (wrong
// family) versus the paper's piece-wise-linear model with pinned
// discontinuities. Metrics: worst absolute error of each fit across
// 8..64 bits.
func BenchmarkAblationMulFitFamily(b *testing.B) {
	var worstPoly, worstPWL float64
	for i := 0; i < b.N; i++ {
		var xs, ys []float64
		for w := 8; w <= 64; w += 2 {
			xs = append(xs, float64(w))
			ys = append(ys, float64(fabric.MulALUTs(w)))
		}
		poly, err := costmodel.PolyFit(xs, ys, 2)
		if err != nil {
			b.Fatal(err)
		}
		pwl, err := costmodel.NewPiecewiseLinear(xs, ys)
		if err != nil {
			b.Fatal(err)
		}
		worstPoly, worstPWL = 0, 0
		for w := 8; w <= 64; w++ {
			actual := float64(fabric.MulALUTs(w))
			if e := math.Abs(poly.Eval(float64(w)) - actual); e > worstPoly {
				worstPoly = e
			}
			if e := math.Abs(pwl.Eval(float64(w)) - actual); e > worstPWL {
				worstPWL = e
			}
		}
	}
	b.ReportMetric(worstPoly, "poly_worst_ALUTs")
	b.ReportMetric(worstPWL, "pwl_worst_ALUTs")
}

// BenchmarkAblationFillTerms quantifies dropping the offset-priming and
// pipeline-fill terms from the EKIT expressions: negligible at the
// paper's large NDRanges, decisive at the small grids where Fig 17's
// reversal happens. Metric: percent throughput overestimate of the
// fill-less model at a small grid.
func BenchmarkAblationFillTerms(b *testing.B) {
	p := perf.Params{
		HPB: 3.2e9, RhoH: 0.8, GPB: 38.4e9, RhoG: 0.7,
		NGS: 24 * 24 * 24, NWPT: 3, NKI: 1000, Noff: 150, KPD: 20,
		FD: 105e6, NTO: 1, NI: 26, KNL: 4, DV: 1, WordBytes: 3, Pipelined: true,
	}
	var overestimate float64
	for i := 0; i < b.N; i++ {
		withFills, _, err := p.EKIT(perf.FormB)
		if err != nil {
			b.Fatal(err)
		}
		q := p
		q.Noff = 0
		q.KPD = 0
		withoutFills, _, err := q.EKIT(perf.FormB)
		if err != nil {
			b.Fatal(err)
		}
		overestimate = (withoutFills/withFills - 1) * 100
	}
	b.ReportMetric(overestimate, "overest_pct")
}

// BenchmarkAblationSustainedVsPeakBW quantifies replacing the empirical
// sustained-bandwidth model with the naive peak-bandwidth assumption
// (rho = 1): the communication walls of Fig 15 move outward and the
// explorer picks over-replicated designs. Metric: the factor by which
// the naive model overestimates a strided stream's bandwidth.
func BenchmarkAblationSustainedVsPeakBW(b *testing.B) {
	bw, err := membw.Build(device.Virtex7690T())
	if err != nil {
		b.Fatal(err)
	}
	var factor float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bytes := int64(2000 * 2000 * 4)
		sustained := bw.SustainedSteady(bytes, tir.PatternStrided)
		factor = device.Virtex7690T().DRAM.PeakBandwidth / sustained
	}
	b.ReportMetric(factor, "peak_overest_x")
}

// BenchmarkPipelineSimulator prices the "actual" side of Table II: the
// cycle-accurate simulation of one SOR kernel-instance.
func BenchmarkPipelineSimulator(b *testing.B) {
	spec := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 1}
	m, err := spec.Module()
	if err != nil {
		b.Fatal(err)
	}
	mem, err := kernels.BindInputs(spec.MakeInputs(1), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := pipesim.Compile(elaborate(b, m))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Run(mem); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesisSubstrate prices the synthesis substrate the cost
// model replaces in the DSE loop.
func BenchmarkSynthesisSubstrate(b *testing.B) {
	m, err := kernels.DefaultHotspot().Module()
	if err != nil {
		b.Fatal(err)
	}
	s := fabric.New(device.StratixVGSD8())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Synthesize(elaborate(b, m))
	}
}

// BenchmarkEngineSweep prices the unified DSE engine on a 3-axis
// space (16 lanes × 3 vectorisation degrees × forms A and B = 96
// points) serially and with the full worker pool: the j=N/j=1 ns/op
// ratio is the parallel-exploration speedup the engine buys on this
// host. Each iteration builds a fresh engine so the memoised cache
// starts cold.
func BenchmarkEngineSweep(b *testing.B) {
	target := device.GSD8Edu()
	mdl, err := costmodel.Calibrate(target)
	if err != nil {
		b.Fatal(err)
	}
	bw, err := membw.Build(target)
	if err != nil {
		b.Fatal(err)
	}
	build := func(lanes int) (*tir.Module, error) {
		return kernels.SORSpec{IM: 15, JM: 10, KM: 96096, Lanes: lanes}.Module()
	}
	space, err := dse.NewSpace(
		dse.LanesAxis(dse.LaneCounts(16)),
		dse.DVAxis([]int{1, 2, 4}),
		dse.FormAxis(perf.FormA, perf.FormB),
	)
	if err != nil {
		b.Fatal(err)
	}
	jmax := runtime.GOMAXPROCS(0)
	if jmax < 4 {
		jmax = 4 // keep the parallel arm distinct on small containers
	}
	for _, j := range []int{1, jmax} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			var res *dse.Result
			for i := 0; i < b.N; i++ {
				eng := dse.NewEngine(space,
					dse.NewEvaluator(mdl, bw, build, perf.Workload{NKI: 10}, perf.FormB), j)
				res, err = eng.Run(dse.Exhaustive{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Points)), "points")
			b.ReportMetric(float64(res.Best.Lanes), "best_lanes")
		})
	}
}

// BenchmarkSimEvaluator prices one cold variant evaluation per DSE
// scorer — cost model, cycle-accurate simulator, hybrid — on a small SOR
// instance at 1, 2 and 4 lanes. A fresh evaluator per iteration:
// nothing memoised survives, so the number is the cost a new DSE point
// pays, including the design compile and its structural timing on the
// sim-backed modes. Metrics: the per-instance simulated cycles
// (sim/hybrid) and the model's CPKI estimate.
func BenchmarkSimEvaluator(b *testing.B) {
	shelf := []*device.Target{device.GSD8Edu()}
	cache := dse.NewModelCache()
	if _, _, err := cache.Models(shelf[0]); err != nil {
		b.Fatal(err)
	}
	build := func(lanes int) (*tir.Module, error) {
		return kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: lanes}.Module()
	}
	for _, mode := range []dse.EvalMode{dse.EvalModel, dse.EvalSim, dse.EvalHybrid} {
		for _, lanes := range []int{1, 2, 4} {
			space, err := dse.NewSpace(dse.LanesAxis([]int{lanes}))
			if err != nil {
				b.Fatal(err)
			}
			variant := space.Enumerate()[0]
			b.Run(fmt.Sprintf("%s/lanes=%d", mode, lanes), func(b *testing.B) {
				b.ReportAllocs()
				var p *dse.Point
				for i := 0; i < b.N; i++ {
					eval, err := dse.NewDeviceModeEvaluatorCache(mode, shelf, build,
						perf.Workload{NKI: 10}, perf.FormB, dse.SimConfig{}, cache)
					if err != nil {
						b.Fatal(err)
					}
					p, err = eval(space, variant)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(p.Est.CPKI(p.Par.NGS)), "model_cpki")
				if mode != dse.EvalModel {
					b.ReportMetric(float64(p.SimCycles), "sim_cycles")
				}
			})
		}
	}
}

// BenchmarkVariantFrontEnd prices the per-variant front end of one
// sim-scored sweep (tytradse -eval sim, bench/'s sim-sweep): Fig 15 sor
// at lanes 1..8, each lane count's module built (one tir.Check),
// elaborated once (tir.Analyze, the call DAG, one ASAP schedule per
// datapath), lowered for the cost model (costmodel.Lower), compiled for
// the simulator (pipesim.Compile) and timed (Timing). One op is all
// eight lane counts; allocations are reported.
func BenchmarkVariantFrontEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for lanes := 1; lanes <= 8; lanes++ {
			m, err := experiments.Fig15Spec(lanes).Module()
			if err != nil {
				b.Fatal(err)
			}
			ed := elaborate(b, m)
			if _, err := costmodel.Lower(ed); err != nil {
				b.Fatal(err)
			}
			d, err := pipesim.Compile(ed)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := d.Timing(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStrategyComparison regenerates the strategy comparison of
// `tytrabench -exp strat`: every registered strategy searching the Fig
// 15 lanes×form space through one shared memoised engine. Wall-clock
// here prices a whole comparison run; the headline metrics are the
// deterministic search-efficiency numbers — evaluations charged by the
// adaptive strategies against the 32-point enumeration (both find the
// same best design; TestDSEStratReport enforces it and pins every row
// in internal/experiments/testdata/strat.golden).
func BenchmarkStrategyComparison(b *testing.B) {
	var r *experiments.DSEStratResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.DSEStrat()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range r.Rows {
		switch row.Strategy {
		case "exhaustive":
			b.ReportMetric(float64(row.Evals), "exhaustive_evals")
		case "hillclimb":
			b.ReportMetric(float64(row.Evals), "hillclimb_evals")
		case "anneal":
			b.ReportMetric(float64(row.Evals), "anneal_evals")
		}
	}
}

// benchBind builds the module and bound inputs for one spec. The
// BenchmarkPipesim family runs experiments.PipesimBenchSpecs — the same
// workloads the opt-in perf gates in internal/experiments time.
func benchBind(b *testing.B, spec kernels.Spec) (*tir.Module, map[string][]int64) {
	b.Helper()
	m, err := spec.Module()
	if err != nil {
		b.Fatal(err)
	}
	mem, err := kernels.BindInputs(spec.MakeInputs(1), spec.LaneCount())
	if err != nil {
		b.Fatal(err)
	}
	return m, mem
}

// BenchmarkPipesimCompile prices the cold path — validate + compile +
// execute through a fresh CompiledDesign — which is what every
// pipesim.Run call pays.
func BenchmarkPipesimCompile(b *testing.B) {
	for _, spec := range experiments.PipesimBenchSpecs() {
		b.Run(spec.Name(), func(b *testing.B) {
			m, mem := benchBind(b, spec)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := pipesim.CompileConfig(m, pipesim.Config{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := d.Run(mem); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipesimCompileLanes prices compilation alone — validate,
// bind every lane's call site, lower the PE function and sum the
// timing — on the Fig 15 SOR workload at 1, 4 and 16 lanes: what
// simulation-backed DSE pays per lane count before it reads Timing. The
// lanes replicate one kernel, so the allocations should grow far slower
// than the lane count (pipesim's TestCompileAllocsFlatInLanes gates the
// 16-lane to 1-lane ratio).
func BenchmarkPipesimCompileLanes(b *testing.B) {
	for _, lanes := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			m, err := experiments.Fig15Spec(lanes).Module()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pipesim.Compile(elaborate(b, m)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipesimRun prices d.Run on a shared CompiledDesign: a fresh
// instance plus one run, what a caller holding only the design pays per
// run. Allocations are reported: the instance scratch is the part a
// caller saves by holding one instance (pipesim's
// TestInstanceRunAllocations gates the reused-instance run).
func BenchmarkPipesimRun(b *testing.B) {
	for _, spec := range experiments.PipesimBenchSpecs() {
		b.Run(spec.Name(), func(b *testing.B) {
			m, mem := benchBind(b, spec)
			d, err := pipesim.Compile(elaborate(b, m))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Run(mem); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipesimConcurrent drives ONE shared CompiledDesign from
// GOMAXPROCS goroutines, each run on a fresh instance: the
// throughput-scaling story of the compile/instance split. Compare its
// run rate against BenchmarkPipesimRun to read the scaling on the
// host; the opt-in TestConcurrentThroughputSmoke gate holds -j4 above
// -j1.
func BenchmarkPipesimConcurrent(b *testing.B) {
	for _, spec := range experiments.PipesimBenchSpecs() {
		b.Run(spec.Name(), func(b *testing.B) {
			m, mem := benchBind(b, spec)
			d, err := pipesim.Compile(elaborate(b, m))
			if err != nil {
				b.Fatal(err)
			}
			var items int64
			if res, err := d.Run(mem); err != nil {
				b.Fatal(err)
			} else {
				items = res.Items
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := d.Run(mem); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.ReportMetric(float64(items)*float64(b.N)/b.Elapsed().Seconds(), "items/s")
		})
	}
}

// BenchmarkPipesimExecutors prices the hot path (a pre-built design's
// dedicated instance) on both executors: the scalar per-item loop and
// the batched sweep. The ratio between the two sub-benchmarks is the
// isolated batching win; the opt-in TestPipesimBenchSmoke gate in
// internal/experiments fails if it ever drops below 1.
func BenchmarkPipesimExecutors(b *testing.B) {
	levels := []struct {
		name string
		cfg  pipesim.Config
	}{
		{"scalar", pipesim.Config{DisableBatch: true}},
		{"batched", pipesim.Config{}},
	}
	for _, spec := range experiments.PipesimBenchSpecs() {
		for _, lvl := range levels {
			b.Run(spec.Name()+"/"+lvl.name, func(b *testing.B) {
				m, mem := benchBind(b, spec)
				d, err := pipesim.CompileConfig(m, lvl.cfg)
				if err != nil {
					b.Fatal(err)
				}
				inst := d.NewInstance()
				var res *pipesim.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err = inst.Run(mem)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.Items)*float64(b.N)/b.Elapsed().Seconds(), "items/s")
			})
		}
	}
}

// BenchmarkPipesimOracle prices the same instances through the retained
// interpreter: the baseline the compiled executors are measured
// against, kept benchmarked so the oracle stays honest (and usable) too.
func BenchmarkPipesimOracle(b *testing.B) {
	for _, spec := range experiments.PipesimBenchSpecs() {
		b.Run(spec.Name(), func(b *testing.B) {
			m, mem := benchBind(b, spec)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pipesim.RunOracle(m, mem); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipesimIterations prices the form-B iteration loop on one
// reused instance of a compiled design: per-kernel feedback wiring (the stencil kernels feed
// their output field back; lavamd re-runs its pairs), nki instances per
// op. This is the path examples/weather-sim and simulation-backed DSE
// sit on.
func BenchmarkPipesimIterations(b *testing.B) {
	const nki = 10
	feedback := map[string]pipesim.Feedback{
		"sor":     {kernels.MemName("p_new", -1): kernels.MemName("p", -1)},
		"hotspot": {kernels.MemName("t_new", -1): kernels.MemName("t", -1)},
		"srad":    {kernels.MemName("img_new", -1): kernels.MemName("img", -1)},
		"lavamd":  {},
	}
	for _, spec := range experiments.PipesimBenchSpecs() {
		b.Run(spec.Name(), func(b *testing.B) {
			m, mem := benchBind(b, spec)
			d, err := pipesim.CompileConfig(m, pipesim.Config{})
			if err != nil {
				b.Fatal(err)
			}
			inst := d.NewInstance()
			fb := feedback[spec.Name()]
			var res *pipesim.IterationResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err = inst.RunIterations(mem, nki, fb)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.TotalCycles), "cycles")
			b.ReportMetric(float64(res.Instances)*float64(b.N)/b.Elapsed().Seconds(), "instances/s")
		})
	}
}
