// Compiled cost-model benchmark report: the machine-readable price of
// one variant estimate under the tree-walk oracle versus the compiled
// flat estimate program, plus the engine's synthetic large-space
// throughput, committed as BENCH_DSE_MODEL.json at the repo root (see
// DESIGN.md). The per-kernel rows carry the headline claim — compile
// once, then closed-form arithmetic per variant — and the engine rows
// price a 100k-point exhaustive sweep through the dense cell table and
// chunked work claims at several worker counts.

package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/kernels"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/tir"
)

// DSEModelBenchRow is one kernel's estimate-cost measurement on the
// educational target.
type DSEModelBenchRow struct {
	Kernel string `json:"kernel"`
	// TreeNsOp is one tree-walk EstimateVectorised call (the oracle).
	TreeNsOp int64 `json:"tree_ns_op"`
	// CompileNsOp is the one-time Compile cost (roughly one tree walk).
	CompileNsOp int64 `json:"compile_ns_op"`
	// WarmNsOp is one estimate off the compiled program.
	WarmNsOp int64 `json:"warm_ns_op"`
	// AllocsPerVariant is the steady-state heap allocations of one
	// compiled estimate (the returned Estimate itself is one).
	AllocsPerVariant float64 `json:"allocs_per_variant"`
	// Speedup is TreeNsOp / WarmNsOp.
	Speedup float64 `json:"speedup"`
}

// DSEModelEngineRow is the synthetic large-space sweep at one worker
// count: a fresh engine evaluating every point of the space through
// the compiled evaluator (estimates warm, so the row prices the
// engine's memo/dispatch hot path, not the estimator).
type DSEModelEngineRow struct {
	Workers      int     `json:"workers"`
	Points       int     `json:"points"`
	NsPerVariant int64   `json:"ns_per_variant"`
	PointsPerSec float64 `json:"points_per_sec"`
}

// DSEModelBenchResult is the whole report.
type DSEModelBenchResult struct {
	Schema string              `json:"schema"`
	GOOS   string              `json:"goos"`
	GOARCH string              `json:"goarch"`
	CPUs   int                 `json:"cpus"`
	Rows   []DSEModelBenchRow  `json:"benchmarks"`
	Engine []DSEModelEngineRow `json:"engine"`
}

// dseModelCorpus is the measured kernel set: the three variant
// families tytradse explores, at one lane so the rows price the
// estimator, not the datapath width.
func dseModelCorpus() []struct {
	name string
	mod  func() (*tir.Module, error)
} {
	return []struct {
		name string
		mod  func() (*tir.Module, error)
	}{
		{"sor", func() (*tir.Module, error) { return DSESimBenchSpec(1).Module() }},
		{"hotspot", func() (*tir.Module, error) { return kernels.HotspotSpec{Rows: 384, Cols: 682, Lanes: 1}.Module() }},
		{"lavamd", func() (*tir.Module, error) { return kernels.LavaMDSpec{Pairs: 96, Lanes: 1}.Module() }},
	}
}

// allocsPer reports the average heap allocations of n calls to f,
// measured through the runtime's malloc counter on a quiesced heap.
func allocsPer(n int, f func()) float64 {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// DSEModelBench measures the compiled cost model against the tree-walk
// oracle per corpus kernel and the engine's synthetic 100k-point sweep
// throughput. minTime is the budget per measurement; zero selects a
// default suited to a committed baseline.
func DSEModelBench(minTime time.Duration) (*DSEModelBenchResult, error) {
	if minTime <= 0 {
		minTime = 250 * time.Millisecond
	}
	t := device.GSD8Edu()
	mdl, err := costmodel.Calibrate(t)
	if err != nil {
		return nil, err
	}
	res := &DSEModelBenchResult{
		Schema: "tytra-bench-dse-model/v1",
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.GOMAXPROCS(0),
	}

	const dv = 4
	for _, k := range dseModelCorpus() {
		m, err := k.mod()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", k.name, err)
		}
		treeNs, err := timeIt(minTime, func() error {
			_, err := mdl.EstimateVectorised(m, dv)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s tree: %w", k.name, err)
		}
		compileNs, err := timeIt(minTime, func() error {
			_, err := mdl.Compile(m)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s compile: %w", k.name, err)
		}
		cm, err := mdl.Compile(m)
		if err != nil {
			return nil, err
		}
		warmNs, err := timeIt(minTime, func() error {
			_, err := cm.EstimateVectorised(dv)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s warm: %w", k.name, err)
		}
		allocs := allocsPer(1000, func() { _, _ = cm.EstimateVectorised(dv) })
		res.Rows = append(res.Rows, DSEModelBenchRow{
			Kernel:           k.name,
			TreeNsOp:         treeNs,
			CompileNsOp:      compileNs,
			WarmNsOp:         warmNs,
			AllocsPerVariant: allocs,
			Speedup:          float64(treeNs) / float64(warmNs),
		})
	}

	engine, err := dseModelEngineSweep(minTime, mdl, t)
	if err != nil {
		return nil, err
	}
	res.Engine = engine
	return res, nil
}

// dseModelEngineSweep prices the 100k-point synthetic exhaustive sweep
// (lanes × dv × fclk = 4·25·1000) per worker count. The evaluator is
// shared across runs, so estimates are warm after the first sweep and
// the figure isolates the engine: dense Index keys, sharded cell
// table, chunked work claims, per-point assembly.
func dseModelEngineSweep(minTime time.Duration, mdl *costmodel.Model,
	t *device.Target) ([]DSEModelEngineRow, error) {
	bw, err := membw.Build(t)
	if err != nil {
		return nil, err
	}
	dvs := make([]int, 25)
	for i := range dvs {
		dvs[i] = i + 1
	}
	fclk := make([]int, 1000)
	for i := range fclk {
		fclk[i] = 50 + i
	}
	space, err := dse.NewSpace(
		dse.LanesAxis([]int{1, 2, 4, 8}),
		dse.DVAxis(dvs),
		dse.FclkAxis(fclk),
	)
	if err != nil {
		return nil, err
	}
	vs := space.Enumerate()
	build := func(lanes int) (*tir.Module, error) { return DSESimBenchSpec(lanes).Module() }
	eval := dse.NewEvaluator(mdl, bw, build, perf.Workload{NKI: 10}, perf.FormB)

	var rows []DSEModelEngineRow
	for _, workers := range []int{1, 4, 8} {
		ns, err := timeIt(minTime, func() error {
			_, err := dse.NewEngine(space, eval, workers).EvalAll(vs)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: engine j%d: %w", workers, err)
		}
		perVariant := ns / int64(len(vs))
		rows = append(rows, DSEModelEngineRow{
			Workers:      workers,
			Points:       len(vs),
			NsPerVariant: perVariant,
			PointsPerSec: 1e9 * float64(len(vs)) / float64(ns),
		})
	}
	return rows, nil
}

// JSON renders the report for BENCH_DSE_MODEL.json.
func (r *DSEModelBenchResult) JSON() string {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "{}" // cannot happen: the struct is plain data
	}
	return string(b) + "\n"
}
