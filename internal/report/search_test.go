package report

import (
	"strings"
	"testing"

	"repro/internal/dse"
)

func searchResult(t *testing.T) *dse.Result {
	t.Helper()
	space, err := dse.NewSpace(dse.LanesAxis([]int{1, 2, 4, 8}))
	if err != nil {
		t.Fatal(err)
	}
	return &dse.Result{
		Space:    space,
		Strategy: "hillclimb",
		Evals:    3,
		Coverage: 0.75,
		Stop:     dse.StopBudget,
		Seed:     7,
		Budget:   dse.Budget{MaxEvals: 3},
		Trajectory: []dse.TrajectorySample{
			{Wave: 1, Evals: 2, BestEKIT: 0},
			{Wave: 2, Evals: 3, BestEKIT: 12.5},
			{Wave: 3, Evals: 3, BestEKIT: 12.5}, // folded: no progress
			{Wave: 4, Evals: 3, BestEKIT: 12.5}, // final: always printed
		},
	}
}

func TestSearchTable(t *testing.T) {
	s := SearchTable("trajectory", searchResult(t)).String()
	for _, want := range []string{"wave", "evals", "coverage%", "best-EKIT/s", "50.000", "12.500"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	// The pre-best wave renders a dash, not a zero EKIT.
	if !strings.Contains(s, "-") {
		t.Errorf("no placeholder for the best-less wave:\n%s", s)
	}
	lines := strings.Count(s, "\n")
	// Title + two rules + header + 3 kept rows (wave 3 folds into 4).
	if lines > 8 {
		t.Errorf("no-progress waves not folded (%d lines):\n%s", lines, s)
	}
	if !strings.Contains(s, "4     3") {
		t.Errorf("final wave not printed:\n%s", s)
	}
}

func TestSearchSummary(t *testing.T) {
	s := SearchSummary(searchResult(t))
	for _, want := range []string{
		"hillclimb", "3 of 4 points", "75.0% coverage",
		"stop=budget", "seed=7", "budget=3",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
	if !strings.HasSuffix(s, "\n") {
		t.Error("summary is not newline-terminated")
	}
}
