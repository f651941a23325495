// sor-dse: the paper's §II/§VI-A story end to end. A scalar kernel is
// written once in the functional front-end; reshapeTo type
// transformations generate correct-by-construction lane variants;
// every variant is lowered to TyTra-IR and scored in parallel by the
// DSE engine's hybrid evaluator — the EKIT cost model ranks the
// variants while the cycle-accurate pipeline simulator times each
// one, so the sweep prints the design space with its walls, the
// selected best variant, and the per-variant model/sim calibration
// cross-check.
//
//	go run ./examples/sor-dse
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/perf"
	"repro/internal/report"
	"repro/internal/tir"
	"repro/internal/typetrans"
)

// movingLaplace is a 1-D three-point stencil kernel (a relaxation step),
// written as a scalar function over streams — the role p_sor plays in
// the paper.
func movingLaplace() *typetrans.Kernel {
	ty := tir.UIntT(18)
	return &typetrans.Kernel{
		Name: "laplace1d",
		Inputs: []typetrans.StreamSig{
			{Name: "u", Ty: ty},
			{Name: "f", Ty: ty},
		},
		Outputs: []typetrans.StreamSig{{Name: "u_new", Ty: ty}},
		Body: func(fb *tir.FuncBuilder, ins, outs []tir.Value) {
			u, f := ins[0], ins[1]
			up := fb.Offset(u, 1)
			un := fb.Offset(u, -1)
			sum := fb.Add(fb.MulImm(up, 7), fb.MulImm(un, 7))
			mid := fb.MulImm(u, 2)
			s2 := fb.Add(sum, mid)
			rhs := fb.MulImm(f, 16)
			diff := fb.Sub(s2, rhs)
			res := fb.BinImm(tir.OpLshr, diff, 4)
			fb.Out(outs[0], res)
			fb.Accumulate("residual", tir.OpAdd, res)
		},
	}
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run generates, scores and ranks the lane variants, and writes the
// design space to w.
func run(w io.Writer) error {
	const n = 1 << 20 // stream elements per kernel-instance

	// 1. Generate program variants through type transformations.
	variants, err := typetrans.EnumerateLaneVariants(movingLaplace(), n, 16)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "front-end generated %d variants of the baseline `map laplace1d u`\n", len(variants))

	// 2. The target: the scaled educational device, so the walls are
	// visible with this small integer kernel.
	target := device.GSD8Edu()

	// 3. Lower and cost every variant in parallel: the lane counts the
	// front-end generated become the lanes axis of a design Space, and
	// the engine's worker pool evaluates the points concurrently with
	// memoised estimates, after the one-time target calibration.
	byLanes := map[int]*typetrans.Program{}
	laneVals := make([]int, len(variants))
	for i, v := range variants {
		laneVals[i] = int(v.Lanes())
		byLanes[int(v.Lanes())] = v
	}
	space, err := dse.NewSpace(dse.LanesAxis(laneVals))
	if err != nil {
		return err
	}
	build := func(lanes int) (*tir.Module, error) { return byLanes[lanes].Lower() }
	res, err := core.Explore(dse.EvalHybrid, []*device.Target{target}, nil, build, space,
		perf.Workload{NKI: 100}, perf.FormB, dse.Exhaustive{}, 0, dse.SearchOptions{})
	if err != nil {
		return err
	}

	tab := report.NewTable(
		fmt.Sprintf("laplace1d design space on %s (form B, NKI=100, hybrid scorer)", target.Name),
		"lanes", "modes", "ALUTs", "%ALUT", "EKIT/s", "sim-EKIT/s", "fits", "limit")
	for i, p := range res.Points {
		v := variants[i]
		modeStr := ""
		for j, mode := range v.Modes {
			if j > 0 {
				modeStr += "·"
			}
			modeStr += "map^" + mode.String()
		}
		tab.AddRow(v.Lanes(), modeStr, p.Est.Used.ALUTs, p.UtilALUT*100, p.EKIT, p.SimEKIT,
			fmt.Sprintf("%v", p.Fits), p.Limiter)
	}
	fmt.Fprintln(w, tab)

	// The cross-check the hybrid scorer buys: does the model's CPKI
	// estimate track the simulator's cycles on every variant?
	fmt.Fprintln(w, report.CalibrationTable(
		"calibration: model CPKI vs simulated cycles", res, 0))

	// 4. The guided search's answer.
	if res.Best == nil {
		fmt.Fprintln(w, "no variant fits the device")
		return nil
	}
	fmt.Fprintf(w, "selected variant: %d lanes (EKIT %.3g/s)\n", res.Best.Lanes, res.Best.EKIT)
	return nil
}
