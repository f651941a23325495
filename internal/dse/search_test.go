package dse

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/kernels"
	"repro/internal/perf"
)

// goldenSpaces are the space shapes the equivalence suite pins the
// rebuilt strategies on: the Fig 15 lane sweep, the lanes×form and
// lanes×dv×form cross products, and a space without a lanes axis (the
// WallPruned degrade path).
func goldenSpaces(t *testing.T) map[string][]Axis {
	t.Helper()
	return map[string][]Axis{
		"lanes":         {LanesAxis(LaneCounts(16))},
		"lanes-form":    {LanesAxis(LaneCounts(16)), FormAxis(perf.FormA, perf.FormB)},
		"lanes-dv-form": {LanesAxis([]int{1, 2, 3, 4, 6, 8}), DVAxis([]int{1, 2}), FormAxis(perf.FormA, perf.FormB)},
		"no-lanes":      {FormAxis(perf.FormA, perf.FormB)},
	}
}

// sameResult compares everything the batch-era strategies produced:
// field-for-field equality is the in-memory spelling of "byte
// identical" for the rendered tables, which format these values and
// nothing else.
func sameResult(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if got.Strategy != want.Strategy {
		t.Errorf("%s: strategy %q != %q", ctx, got.Strategy, want.Strategy)
	}
	if len(got.Variants) != len(want.Variants) {
		t.Fatalf("%s: %d variants != %d", ctx, len(got.Variants), len(want.Variants))
	}
	for i := range want.Variants {
		if !reflect.DeepEqual(got.Variants[i], want.Variants[i]) {
			t.Fatalf("%s: variant %d is %v, want %v", ctx, i, got.Variants[i], want.Variants[i])
		}
		samePoint(t, fmt.Sprintf("%s[%d]", ctx, i), *got.Points[i], *want.Points[i], true)
	}
	if got.Walls != want.Walls {
		t.Errorf("%s: walls %+v != %+v", ctx, got.Walls, want.Walls)
	}
	if !reflect.DeepEqual(got.Frontier, want.Frontier) {
		t.Errorf("%s: frontier %v != %v", ctx, got.Frontier, want.Frontier)
	}
	if (got.Best == nil) != (want.Best == nil) {
		t.Fatalf("%s: best presence differs", ctx)
	}
	if got.Best != nil {
		if got.Best.EKIT != want.Best.EKIT || !reflect.DeepEqual(got.BestVariant, want.BestVariant) {
			t.Errorf("%s: best (%v, %g) != (%v, %g)", ctx,
				got.BestVariant, got.Best.EKIT, want.BestVariant, want.Best.EKIT)
		}
	}
}

// TestSearchMatchesLegacyStrategies pins the ask/tell rebuilds of
// Exhaustive, WallPruned and ParetoFrontier to the frozen batch
// implementations on the golden spaces, at several worker counts (run
// under -race in CI).
func TestSearchMatchesLegacyStrategies(t *testing.T) {
	mdl, bw := fixtures(t)
	legacy := map[string]func(*Engine) (*Result, error){
		"exhaustive":  legacyExploreExhaustive,
		"wall-pruned": legacyExploreWallPruned,
		"pareto":      legacyExploreParetoFrontier,
	}
	for spaceName, axes := range goldenSpaces(t) {
		space, err := NewSpace(axes...)
		if err != nil {
			t.Fatal(err)
		}
		for stName, legacyExplore := range legacy {
			st, err := ParseStrategy(stName)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, 8} {
				ctx := fmt.Sprintf("%s/%s/j=%d", spaceName, stName, workers)
				eval := NewEvaluator(mdl, bw, sorBuilder, perf.Workload{NKI: 10}, perf.FormB)
				want, err := legacyExplore(NewEngine(space, eval, workers))
				if err != nil {
					t.Fatalf("%s legacy: %v", ctx, err)
				}
				got, err := NewEngine(space, eval, workers).Run(st)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				sameResult(t, ctx, got, want)
			}
		}
	}
}

// syntheticEval fabricates points from closed-form curves so the
// pruning and budget logic can be driven through exact shapes. ekit
// and hostBW map a lane count to the point's EKIT and host-bandwidth
// utilisation; everything fits.
func syntheticEval(ekit, hostBW func(lanes int) float64) Evaluator {
	return func(s *Space, v Variant) (*Point, error) {
		lanes := s.ValueDefault(v, AxisLanes, 1)
		e := ekit(lanes)
		return &Point{Lanes: lanes, EKIT: e, ModelEKIT: e, Fits: true,
			UtilALUT: float64(lanes) / 100, UtilHostBW: hostBW(lanes)}, nil
	}
}

// TestWallPrunedFirstLaneWalled is the regression for the saturation
// check: a space whose very first lane count is already
// bandwidth-walled is entirely past the climb, so the sweep must stop
// at the first saturated point instead of walking the whole axis.
func TestWallPrunedFirstLaneWalled(t *testing.T) {
	space, err := NewSpace(LanesAxis(LaneCounts(8)))
	if err != nil {
		t.Fatal(err)
	}
	// Every point walled, throughput already flat: +0.1% per lane.
	eval := syntheticEval(
		func(lanes int) float64 { return 100 * (1 + 0.001*float64(lanes)) },
		func(lanes int) float64 { return 1.5 },
	)
	for _, workers := range []int{1, 8} {
		r, err := NewEngine(space, eval, workers).Run(WallPruned{})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Points) != 2 {
			t.Errorf("j=%d: first-lane-walled sweep kept %d points, want 2 (first point plus the saturated prune point)",
				workers, len(r.Points))
		}
		if r.Walls.Host != 1 {
			t.Errorf("j=%d: host wall at %d, want 1", workers, r.Walls.Host)
		}
	}
}

// TestWallPrunedSaturatedAtTheWall documents the fix over the frozen
// implementation: when throughput has already flattened by the time
// the sweep crosses the bandwidth wall, the first walled point prunes
// immediately. The old bwWalled flag exempted that point, always
// paying for one more evaluation past the wall.
func TestWallPrunedSaturatedAtTheWall(t *testing.T) {
	space, err := NewSpace(LanesAxis(LaneCounts(8)))
	if err != nil {
		t.Fatal(err)
	}
	// Flat EKIT from the start; the wall is crossed at 4 lanes.
	eval := syntheticEval(
		func(lanes int) float64 { return 100 * (1 + 0.001*float64(lanes)) },
		func(lanes int) float64 {
			if lanes >= 4 {
				return 1.2
			}
			return 0.5
		},
	)
	r, err := NewEngine(space, eval, 4).Run(WallPruned{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Errorf("saturated-at-the-wall sweep kept %d points, want 4 (prune at the first walled point)", len(r.Points))
	}
	legacy, err := legacyExploreWallPruned(NewEngine(space, eval, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy.Points) != 5 {
		t.Errorf("frozen implementation kept %d points, expected its 5 (the exempted first walled point)", len(legacy.Points))
	}
}

// TestParetoFrontierMatchesNaive property-tests the sort-based
// frontier against the frozen all-pairs scan on seeded random point
// sets, including duplicates, ties on one objective, nils and
// non-fitting points.
func TestParetoFrontierMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for name, ps := range map[string][]*Point{
			"quantised":  syntheticFrontierPoints(300, seed),
			"dse-shaped": dseShapedPoints(300, seed),
		} {
			got := paretoFrontier(ps)
			want := legacyParetoFrontier(ps)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: sorted frontier %v != naive %v", name, seed, got, want)
			}
		}
	}
}

// syntheticFrontierPoints builds a seeded point cloud for the frontier
// property tests and benchmarks: quantised EKIT/utilisation so ties
// and duplicates occur, with nil and non-fitting entries mixed in.
func syntheticFrontierPoints(n int, seed int64) []*Point {
	rng := kernels.NewLCG(seed)
	ps := make([]*Point, n)
	for i := range ps {
		r := rng.Next()
		switch r % 13 {
		case 0:
			continue // unevaluated
		case 1:
			ps[i] = &Point{Fits: false, EKIT: float64(r%97) + 1}
			continue
		}
		ps[i] = &Point{
			Fits:     true,
			EKIT:     float64(r%23) + 1,
			UtilALUT: float64((r/23)%17) / 17,
		}
	}
	return ps
}

// TestGroupVariantsMatchesEnumeration: the mixed-radix grouping
// partitions the enumeration exactly — every variant appears once, in
// a group whose non-lanes coordinates are constant, with the lanes
// index ascending.
func TestGroupVariantsMatchesEnumeration(t *testing.T) {
	space, err := NewSpace(
		DVAxis([]int{1, 2, 4}),
		LanesAxis([]int{1, 2, 3, 5}),
		FormAxis(perf.FormA, perf.FormB),
	)
	if err != nil {
		t.Fatal(err)
	}
	li, _ := space.AxisIndex(AxisLanes)
	groups := groupVariants(space, li)
	if len(groups) != 6 {
		t.Fatalf("%d groups, want 6", len(groups))
	}
	seen := map[string]bool{}
	total := 0
	for gi, g := range groups {
		for i, v := range g {
			total++
			key := space.Key(v)
			if seen[key] {
				t.Fatalf("variant %s appears twice", key)
			}
			seen[key] = true
			if i > 0 {
				if v[li] <= g[i-1][li] {
					t.Errorf("group %d: lanes index not ascending at %d", gi, i)
				}
				for ai := range v {
					if ai != li && v[ai] != g[i-1][ai] {
						t.Errorf("group %d: non-lanes axis %d varies within the group", gi, ai)
					}
				}
			}
		}
	}
	if total != space.Size() {
		t.Errorf("grouped %d variants, space has %d", total, space.Size())
	}
}

// TestSearchBudgetExact: MaxEvals is a hard cap. A run stopped by the
// budget charges exactly MaxEvals evaluations; any run charges at
// most that.
func TestSearchBudgetExact(t *testing.T) {
	mdl, bw := fixtures(t)
	space, err := NewSpace(LanesAxis(LaneCounts(16)), FormAxis(perf.FormA, perf.FormB))
	if err != nil {
		t.Fatal(err)
	}
	for _, stName := range StrategyNames() {
		st, err := ParseStrategy(stName)
		if err != nil {
			t.Fatal(err)
		}
		for _, max := range []int{1, 7, 31} {
			eval := NewEvaluator(mdl, bw, sorBuilder, perf.Workload{NKI: 10}, perf.FormB)
			r, err := NewEngine(space, eval, 4).Search(st, SearchOptions{
				Budget: Budget{MaxEvals: max}, Seed: 1,
			})
			if err != nil {
				t.Fatalf("%s budget=%d: %v", stName, max, err)
			}
			if r.Evals > max {
				t.Errorf("%s: charged %d evals over the %d budget", stName, r.Evals, max)
			}
			if r.Stop == StopBudget && r.Evals != max {
				t.Errorf("%s: stopped on budget after %d evals, want exactly %d", stName, r.Evals, max)
			}
			if r.Budget.MaxEvals != max || r.Seed != 1 {
				t.Errorf("%s: provenance not echoed: %+v seed=%d", stName, r.Budget, r.Seed)
			}
		}
	}
}

// TestSearchPatience: a run with no improvement after its first wave
// stops with StopPatience before exhausting the space.
func TestSearchPatience(t *testing.T) {
	space, err := NewSpace(LanesAxis(LaneCounts(16)))
	if err != nil {
		t.Fatal(err)
	}
	// Monotonically decreasing EKIT: nothing ever improves on the first
	// kept point.
	eval := syntheticEval(
		func(lanes int) float64 { return 1000 - float64(lanes) },
		func(lanes int) float64 { return 0 },
	)
	r, err := NewEngine(space, eval, 2).Search(Anneal{Chains: 1, Steps: 64}, SearchOptions{
		Budget: Budget{Patience: 3}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stop != StopPatience {
		t.Errorf("stop = %q, want %q", r.Stop, StopPatience)
	}
	if r.Evals >= space.Size() {
		t.Errorf("patience did not stop the search early (%d evals)", r.Evals)
	}
}

// TestSearchRejectsNegativeBudget: a negative MaxEvals or Patience is
// an error that names the field, raised before anything is evaluated,
// for every strategy; 0 stays the spelling of "off".
func TestSearchRejectsNegativeBudget(t *testing.T) {
	space, err := NewSpace(LanesAxis(LaneCounts(4)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		budget Budget
		field  string // "" = accepted
	}{
		{Budget{MaxEvals: -1}, "MaxEvals"},
		{Budget{MaxEvals: -1, Patience: 2}, "MaxEvals"},
		{Budget{Patience: -3}, "Patience"},
		{Budget{MaxEvals: 2, Patience: -1}, "Patience"},
		{Budget{}, ""},
		{Budget{MaxEvals: 2, Patience: 1}, ""},
	}
	for _, stName := range StrategyNames() {
		st, err := ParseStrategy(stName)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			var calls atomic.Int64
			eval := func(*Space, Variant) (*Point, error) {
				calls.Add(1)
				return &Point{Lanes: 1, EKIT: 1, Fits: true}, nil
			}
			_, err := NewEngine(space, eval, 2).Search(st, SearchOptions{Budget: c.budget, Seed: 1})
			switch {
			case c.field == "" && err != nil:
				t.Errorf("%s %+v: %v", stName, c.budget, err)
			case c.field != "" && (err == nil || !strings.Contains(err.Error(), "Budget."+c.field)):
				t.Errorf("%s %+v: error %v does not name Budget.%s", stName, c.budget, err, c.field)
			case c.field != "" && calls.Load() != 0:
				t.Errorf("%s %+v: evaluated %d points before rejecting the budget", stName, c.budget, calls.Load())
			}
		}
	}
}

// adaptiveResultFingerprint flattens what a run produced for exact
// comparison across worker counts.
func adaptiveResultFingerprint(r *Result) string {
	s := fmt.Sprintf("strategy=%s evals=%d stop=%s seed=%d\n", r.Strategy, r.Evals, r.Stop, r.Seed)
	for i, v := range r.Variants {
		s += fmt.Sprintf("%s %s ekit=%g\n", r.Space.Key(v), map[bool]string{true: "fits"}[r.Points[i].Fits], r.Points[i].EKIT)
	}
	for _, ts := range r.Trajectory {
		s += fmt.Sprintf("wave=%d evals=%d best=%g\n", ts.Wave, ts.Evals, ts.BestEKIT)
	}
	if r.Best != nil {
		s += fmt.Sprintf("best=%v %g\n", r.BestVariant, r.Best.EKIT)
	}
	return s
}

// TestAdaptiveDeterministicAcrossWorkers is the acceptance pin:
// HillClimb and Anneal produce identical results — variants, points,
// trajectory, provenance — for a fixed seed at any worker count.
func TestAdaptiveDeterministicAcrossWorkers(t *testing.T) {
	mdl, bw := fixtures(t)
	space, err := NewSpace(LanesAxis(LaneCounts(16)), FormAxis(perf.FormA, perf.FormB))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Strategy{HillClimb{}, Anneal{}} {
		for _, seed := range []int64{1, 42} {
			var ref string
			for _, workers := range []int{1, 3, 8} {
				eval := NewEvaluator(mdl, bw, sorBuilder, perf.Workload{NKI: 10}, perf.FormB)
				r, err := NewEngine(space, eval, workers).Search(st, SearchOptions{Seed: seed})
				if err != nil {
					t.Fatalf("%s seed=%d j=%d: %v", st.Name(), seed, workers, err)
				}
				fp := adaptiveResultFingerprint(r)
				if ref == "" {
					ref = fp
				} else if fp != ref {
					t.Errorf("%s seed=%d: j=%d result diverged:\n--- j=1\n%s\n--- j=%d\n%s",
						st.Name(), seed, workers, ref, workers, fp)
				}
			}
		}
	}
}

// TestAdaptiveFindFig15Best is the search-efficiency acceptance: on
// the Fig 15 lanes×form space both adaptive strategies find the
// exhaustive best while charging strictly fewer evaluations than the
// 32-point enumeration.
func TestAdaptiveFindFig15Best(t *testing.T) {
	mdl, bw := fixtures(t)
	space, err := NewSpace(LanesAxis(LaneCounts(16)), FormAxis(perf.FormA, perf.FormB))
	if err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator(mdl, bw, sorBuilder, perf.Workload{NKI: 10}, perf.FormB)
	eng := NewEngine(space, eval, 4)
	full, err := eng.Run(Exhaustive{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Best == nil {
		t.Fatal("exhaustive found no best")
	}
	for _, st := range []Strategy{HillClimb{}, Anneal{}} {
		r, err := eng.Search(st, SearchOptions{Seed: 1, Budget: Budget{MaxEvals: 24}})
		if err != nil {
			t.Fatalf("%s: %v", st.Name(), err)
		}
		if r.Best == nil || r.Best.EKIT != full.Best.EKIT {
			t.Errorf("%s: best %+v != exhaustive best (%d lanes, %g)",
				st.Name(), r.Best, full.Best.Lanes, full.Best.EKIT)
		}
		if r.Evals >= full.Evals {
			t.Errorf("%s: charged %d evals, not fewer than exhaustive's %d", st.Name(), r.Evals, full.Evals)
		}
		if r.Coverage >= 1 {
			t.Errorf("%s: coverage %.2f not partial", st.Name(), r.Coverage)
		}
	}
}

// TestSearchProvenanceExhaustive: a full enumeration reports complete
// coverage and one trajectory sample per wave.
func TestSearchProvenanceExhaustive(t *testing.T) {
	eng := sorEngine(t, 4, LanesAxis(LaneCounts(8)))
	r, err := eng.Run(Exhaustive{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Evals != 8 || r.Coverage != 1 || r.Stop != StopExhausted {
		t.Errorf("provenance = evals=%d coverage=%g stop=%q", r.Evals, r.Coverage, r.Stop)
	}
	if len(r.Trajectory) != 1 || r.Trajectory[0].Evals != 8 {
		t.Errorf("trajectory = %+v, want one full-space sample", r.Trajectory)
	}
	if r.Seed != 1 {
		t.Errorf("default seed = %d, want 1", r.Seed)
	}
	if best := r.Trajectory[len(r.Trajectory)-1].BestEKIT; r.Best != nil && best != r.Best.EKIT {
		t.Errorf("trajectory best %g != result best %g", best, r.Best.EKIT)
	}
}

// TestResultSliceFrontier: slicing a pareto result recomputes the
// frontier over the slice (satellite: previously untested).
func TestResultSliceFrontier(t *testing.T) {
	eng := sorEngine(t, 4, LanesAxis(LaneCounts(8)), FormAxis(perf.FormA, perf.FormB))
	r, err := eng.Run(ParetoFrontier{})
	if err != nil {
		t.Fatal(err)
	}
	slice, err := r.Slice(AxisForm, int(perf.FormA))
	if err != nil {
		t.Fatal(err)
	}
	if len(slice.Frontier) == 0 {
		t.Fatal("sliced pareto result lost its frontier")
	}
	if !reflect.DeepEqual(slice.Frontier, paretoFrontier(slice.Points)) {
		t.Error("sliced frontier was not recomputed over the slice")
	}
	for _, i := range slice.Frontier {
		if i >= len(slice.Points) {
			t.Fatalf("frontier index %d out of the %d-point slice", i, len(slice.Points))
		}
		if !slice.Points[i].Fits {
			t.Errorf("sliced frontier point %d does not fit", i)
		}
	}
	// A non-pareto result's slice carries no frontier.
	ex, err := eng.Run(Exhaustive{})
	if err != nil {
		t.Fatal(err)
	}
	exSlice, err := ex.Slice(AxisForm, int(perf.FormA))
	if err != nil {
		t.Fatal(err)
	}
	if exSlice.Frontier != nil {
		t.Error("exhaustive slice grew a frontier")
	}
}

// TestResultSliceEmptyAndMissing: a valid axis value the search never
// evaluated yields an empty slice; a value the axis does not carry is
// an error (satellite: previously untested).
func TestResultSliceEmptyAndMissing(t *testing.T) {
	mdl, bw := fixtures(t)
	space, err := NewSpace(LanesAxis([]int{1, 2, 4}), FormAxis(perf.FormA, perf.FormB))
	if err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator(mdl, bw, sorBuilder, perf.Workload{NKI: 10}, perf.FormB)
	// A one-eval budget leaves most of the space unevaluated.
	r, err := NewEngine(space, eval, 2).Search(Exhaustive{}, SearchOptions{Budget: Budget{MaxEvals: 1}})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := r.Slice(AxisForm, int(perf.FormB))
	if err != nil {
		t.Fatalf("empty slice rejected: %v", err)
	}
	if len(empty.Points) != 0 || empty.Best != nil || empty.Walls != (Walls{}) {
		t.Errorf("empty slice not empty: %d points, best %v, walls %+v",
			len(empty.Points), empty.Best, empty.Walls)
	}
	if _, err := r.Slice(AxisLanes, 3); err == nil {
		t.Error("missing axis value accepted by Slice")
	}
	if _, err := r.Slice("device", 0); err == nil {
		t.Error("missing axis accepted by Slice")
	}
}

// TestSearchScoreOrdering: failures < non-fitting < fitting, with
// non-fitting ordered toward the feasible region.
func TestSearchScoreOrdering(t *testing.T) {
	fit := Outcome{Point: &Point{Fits: true, EKIT: 5}}
	tight := Outcome{Point: &Point{Fits: false, UtilALUT: 1.2}}
	loose := Outcome{Point: &Point{Fits: false, UtilALUT: 1.05}}
	failed := Outcome{Err: fmt.Errorf("boom")}
	if !(searchScore(fit, true) > searchScore(loose, true) &&
		searchScore(loose, true) > searchScore(tight, true) &&
		searchScore(tight, true) > searchScore(failed, true)) {
		t.Errorf("score ordering broken: fit=%g loose=%g tight=%g failed=%g",
			searchScore(fit, true), searchScore(loose, true),
			searchScore(tight, true), searchScore(failed, true))
	}
	if !math.IsInf(searchScore(Outcome{}, false), -1) {
		t.Error("unevaluated outcome must score -Inf")
	}
}
