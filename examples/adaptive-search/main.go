// adaptive-search: the budgeted ask/tell search core on the Fig 15
// design space. The exhaustive sweep enumerates all 32 points of the
// SOR lanes×form space; the adaptive strategies — hill-climbing from
// model-seeded starts and simulated annealing — search the same space
// under an evaluation budget and find the same best design for a
// fraction of the evaluations. Both are seeded, so every run of this
// example (at any worker count) prints the same trajectory.
//
//	go run ./examples/adaptive-search
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/perf"
	"repro/internal/report"
	"repro/internal/tir"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run explores the Fig 15 space exhaustively and under a budget, and
// writes the trajectories to out.
func run(out io.Writer) error {
	target := device.GSD8Edu()
	fmt.Fprintf(out, "calibrating models for %s...\n", target.Name)
	// One model cache across the three explorations: the target is
	// calibrated by the first and reused by the other two.
	shelf, cache := []*device.Target{target}, dse.NewModelCache()

	// The Fig 15 space: every lane count in 1..16 under memory
	// execution forms A and B.
	build := func(lanes int) (*tir.Module, error) { return experiments.Fig15Spec(lanes).Module() }
	space, err := dse.NewSpace(
		dse.LanesAxis(dse.LaneCounts(16)),
		dse.FormAxis(perf.FormA, perf.FormB),
	)
	if err != nil {
		return err
	}
	w := perf.Workload{NKI: 10}

	explore := func(st dse.Strategy, opts dse.SearchOptions) (*dse.Result, error) {
		return core.Explore(dse.EvalModel, shelf, cache, build, space, w, perf.FormB,
			st, 0, opts)
	}

	full, err := explore(dse.Exhaustive{}, dse.SearchOptions{})
	if err != nil {
		return err
	}
	if full.Best == nil {
		return fmt.Errorf("no variant of the full sweep fits the device")
	}
	fmt.Fprintf(out, "\nexhaustive: %d evaluations, best %s (EKIT %.3g/s)\n",
		full.Evals, space.Describe(full.BestVariant), full.Best.EKIT)

	// The same space under a 24-evaluation budget and a fixed seed.
	opts := dse.SearchOptions{Seed: 1, Budget: dse.Budget{MaxEvals: 24}}
	for _, st := range []dse.Strategy{dse.HillClimb{}, dse.Anneal{}} {
		res, err := explore(st, opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(out)
		fmt.Fprintln(out, report.SearchTable(
			fmt.Sprintf("%s trajectory: best EKIT found vs evaluations spent", st.Name()), res))
		fmt.Fprint(out, report.SearchSummary(res))
		if res.Best == nil {
			fmt.Fprintln(out, "no fitting design found under the budget")
			continue
		}
		verdict := "a DIFFERENT design than"
		if res.Best.EKIT == full.Best.EKIT {
			verdict = "the SAME best design as"
		}
		fmt.Fprintf(out, "%s found %s the full sweep with %d of %d evaluations (%.0f%%)\n",
			st.Name(), verdict, res.Evals, full.Evals,
			float64(res.Evals)/float64(full.Evals)*100)
	}
	return nil
}
