// DSE evaluator benchmark report: the machine-readable per-variant
// evaluation cost of the three scorers — cost model, cycle-accurate
// simulator, hybrid — committed as BENCH_DSE_SIM.json at the repo root
// (see DESIGN.md). The model path is microseconds per variant (§VI-A's
// claim); the sim path adds a design compile and its structural timing
// (pipesim.CompiledDesign.Timing, no data run), so the report makes
// the price of simulation-backed scoring visible in review diffs.

package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/kernels"
	"repro/internal/perf"
	"repro/internal/tir"
)

// DSESimBenchRow is one (mode, lanes) measurement: the cold
// per-variant evaluation cost (module build + estimate + extraction,
// plus design compile + timing for the sim-backed modes) and the
// headline outputs of the evaluated point.
type DSESimBenchRow struct {
	Mode  string `json:"mode"`
	Lanes int    `json:"lanes"`
	// NsOp is the cold evaluation cost: a fresh evaluator scoring the
	// variant with no memoised state.
	NsOp      int64   `json:"ns_op"`
	ModelEKIT float64 `json:"model_ekit"`
	ModelCPKI int64   `json:"model_cpki"`
	SimEKIT   float64 `json:"sim_ekit,omitempty"`
	SimCycles int64   `json:"sim_cycles,omitempty"`
}

// DSESimBenchResult is the whole report.
type DSESimBenchResult struct {
	Schema string           `json:"schema"`
	GOOS   string           `json:"goos"`
	GOARCH string           `json:"goarch"`
	CPUs   int              `json:"cpus"`
	Rows   []DSESimBenchRow `json:"benchmarks"`
}

// DSESimBenchSpec is the measured workload: the same small SOR
// instance the pipesim benchmark report times, so the two committed
// baselines stay on one workload family.
func DSESimBenchSpec(lanes int) kernels.SORSpec {
	return kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: lanes}
}

// DSESimBench times one cold variant evaluation per (mode, lanes) on
// the scaled educational target. minTime is the budget per
// measurement; zero selects a default suited to a committed baseline.
func DSESimBench(minTime time.Duration) (*DSESimBenchResult, error) {
	if minTime <= 0 {
		minTime = 250 * time.Millisecond
	}
	// Calibrate once, outside the timed evaluations.
	shelf := []*device.Target{device.GSD8Edu()}
	cache := dse.NewModelCache()
	if _, _, err := cache.Models(shelf[0]); err != nil {
		return nil, err
	}
	build := func(lanes int) (*tir.Module, error) { return DSESimBenchSpec(lanes).Module() }
	w := perf.Workload{NKI: 10}

	res := &DSESimBenchResult{
		Schema: "tytra-bench-dse-sim/v1",
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.GOMAXPROCS(0),
	}
	for _, mode := range []dse.EvalMode{dse.EvalModel, dse.EvalSim, dse.EvalHybrid} {
		for _, lanes := range []int{1, 2, 4} {
			space, err := dse.NewSpace(dse.LanesAxis([]int{lanes}))
			if err != nil {
				return nil, err
			}
			variant := space.Enumerate()[0]
			evalOnce := func() (*dse.Point, error) {
				eval, err := dse.NewDeviceModeEvaluatorCache(mode, shelf, build, w, perf.FormB,
					dse.SimConfig{}, cache)
				if err != nil {
					return nil, err
				}
				return eval(space, variant)
			}
			p, err := evalOnce()
			if err != nil {
				return nil, fmt.Errorf("experiments: %s lanes=%d: %w", mode, lanes, err)
			}
			ns, err := timeIt(minTime, func() error {
				_, err := evalOnce()
				return err
			})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, DSESimBenchRow{
				Mode:      mode.String(),
				Lanes:     lanes,
				NsOp:      ns,
				ModelEKIT: p.ModelEKIT,
				ModelCPKI: p.Est.CPKI(p.Par.NGS),
				SimEKIT:   p.SimEKIT,
				SimCycles: p.SimCycles,
			})
		}
	}
	return res, nil
}

// JSON renders the report for BENCH_DSE_SIM.json.
func (r *DSESimBenchResult) JSON() string {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "{}" // cannot happen: the struct is plain data
	}
	return string(b) + "\n"
}
