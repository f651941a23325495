package report

import (
	"fmt"
	"strings"

	"repro/internal/dse"
)

// SearchTable renders a search run's trajectory: one row per wave with
// the cumulative evaluations charged, the coverage fraction of the
// space, and the best fitting EKIT found so far — the
// best-found-vs-evaluations-spent curve a budgeted strategy is judged
// by. Waves that neither charged an evaluation nor improved the best
// are folded into their successor (an annealing tail walks re-visited
// ground for many waves), except the final wave, which always prints
// so the table ends on the run's outcome.
func SearchTable(title string, r *dse.Result) *Table {
	t := NewTable(title, "wave", "evals", "coverage%", "best-EKIT/s")
	size := r.Space.Size()
	for i, s := range r.Trajectory {
		if i > 0 && i < len(r.Trajectory)-1 {
			prev := r.Trajectory[i-1]
			if s.Evals == prev.Evals && s.BestEKIT == prev.BestEKIT {
				continue
			}
		}
		best := "-"
		if s.BestEKIT > 0 {
			best = FormatFloat(s.BestEKIT)
		}
		t.AddRow(s.Wave, s.Evals, float64(s.Evals)/float64(size)*100, best)
	}
	return t
}

// SearchSummary is the one-line provenance of a search run: strategy,
// evaluations charged against the space size, stop reason, seed, and
// — when one was set — the budget.
func SearchSummary(r *dse.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "search: %s evaluated %d of %d points (%.1f%% coverage), stop=%s, seed=%d",
		r.Strategy, r.Evals, r.Space.Size(), r.Coverage*100, r.Stop, r.Seed)
	if r.Budget.MaxEvals > 0 {
		fmt.Fprintf(&b, ", budget=%d", r.Budget.MaxEvals)
	}
	b.WriteByte('\n')
	return b.String()
}
