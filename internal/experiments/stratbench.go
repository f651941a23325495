// DSE strategy comparison (tytrabench -exp strat): best-EKIT-found
// versus evaluations-spent for the exhaustive, wall-pruned and adaptive
// strategies on the Fig 15 SOR lanes×form space. Every figure here is
// deterministic — the engine is pure, the adaptive searches are
// seeded, and the worker count is pinned — so testdata/strat.golden
// pins the rows bit for bit and a diff there means the search
// behaviour itself changed.

package experiments

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/report"
	"repro/internal/tir"
)

// DSEStratRow is one strategy's search outcome on the shared space.
type DSEStratRow struct {
	Strategy string
	// Evals is the number of evaluations the search charged; Coverage
	// is the fraction of the space that is.
	Evals    int
	Coverage float64
	// BestEKIT and BestVariant identify the best fitting design found.
	BestEKIT    float64
	BestVariant string
	// FoundBest reports whether the strategy found the exhaustive
	// sweep's best design.
	FoundBest bool
	Stop      string
}

// DSEStratResult is the whole comparison.
type DSEStratResult struct {
	// Seed and Budget are the adaptive strategies' search options;
	// Workers is the pinned engine parallelism (wall-pruned wave sizes
	// — and so its speculative eval count — follow it).
	Seed        int64
	Budget      int
	Workers     int
	SpacePoints int
	Rows        []DSEStratRow
}

// The comparison's fixed settings. dseStratWorkers pins the engine
// parallelism, so the rows do not vary with the host's core count; the
// adaptive searches run at seed dseStratSeed, capped at dseStratBudget
// evaluations, three quarters of the space.
const (
	dseStratWorkers = 4
	dseStratSeed    = 1
	dseStratBudget  = 24
)

// DSEStrat runs every strategy of dse.StrategyNames over the Fig 15
// lanes×form space (32 points on the scaled educational target) through
// one shared engine: the memoised cache means each variant is costed
// once no matter how many strategies visit it, so the rows differ only
// in search behaviour.
func DSEStrat() (*DSEStratResult, error) {
	t := device.GSD8Edu()
	mdl, err := costmodel.Calibrate(t)
	if err != nil {
		return nil, err
	}
	bw, err := membw.Build(t)
	if err != nil {
		return nil, err
	}
	build := func(lanes int) (*tir.Module, error) { return Fig15Spec(lanes).Module() }
	space, err := dse.NewSpace(
		dse.LanesAxis(dse.LaneCounts(16)),
		dse.FormAxis(perf.FormA, perf.FormB),
	)
	if err != nil {
		return nil, err
	}
	eval := dse.NewEvaluator(mdl, bw, build, perf.Workload{NKI: 10}, perf.FormB)
	eng := dse.NewEngine(space, eval, dseStratWorkers)

	res := &DSEStratResult{
		Seed:        dseStratSeed,
		Budget:      dseStratBudget,
		Workers:     dseStratWorkers,
		SpacePoints: space.Size(),
	}
	var refEKIT float64
	for _, name := range dse.StrategyNames() {
		st, err := dse.ParseStrategy(name)
		if err != nil {
			return nil, err
		}
		opts := dse.SearchOptions{Seed: dseStratSeed}
		if dse.StrategyIsAdaptive(name) {
			opts.Budget = dse.Budget{MaxEvals: dseStratBudget}
		}
		r, err := eng.Search(st, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		row := DSEStratRow{
			Strategy: name,
			Evals:    r.Evals,
			Coverage: r.Coverage,
			Stop:     string(r.Stop),
		}
		if r.Best != nil {
			row.BestEKIT = r.Best.EKIT
			row.BestVariant = space.Describe(r.BestVariant)
		}
		if name == "exhaustive" {
			refEKIT = row.BestEKIT
		}
		row.FoundBest = refEKIT != 0 && row.BestEKIT == refEKIT
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the comparison.
func (r *DSEStratResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("DSE strategy comparison: SOR lanes×form (%d points, seed=%d, adaptive budget=%d)",
			r.SpacePoints, r.Seed, r.Budget),
		"strategy", "evals", "coverage%", "best-EKIT/s", "best", "found-best", "stop")
	for _, row := range r.Rows {
		t.AddRow(row.Strategy, row.Evals, row.Coverage*100, row.BestEKIT,
			row.BestVariant, fmt.Sprintf("%v", row.FoundBest), row.Stop)
	}
	return t
}
