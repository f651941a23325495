package dse

import (
	"fmt"
	"math"
	"math/rand"
)

// Budget bounds a search run. The zero value is unlimited.
type Budget struct {
	// MaxEvals caps the evaluations charged to the run: every distinct
	// variant the search evaluates costs one, memoised re-visits of a
	// variant already seen this run are free. 0 means unlimited, and
	// Engine.Search rejects a negative cap. The core enforces the cap
	// exactly: a wave that would overrun is cut at the first variant the
	// budget cannot afford.
	MaxEvals int
	// Patience ends the run once this many consecutive charged
	// evaluations fail to improve the best fitting EKIT. It is checked
	// between waves (a wave is the atomic unit of the search), so a run
	// can overshoot by at most one wave. 0 disables; negative is
	// rejected.
	Patience int
}

// check rejects a negative field: 0 is the only spelling of "off", so
// a negative value is a caller's mistake, never an unlimited run.
func (b Budget) check() error {
	if b.MaxEvals < 0 {
		return fmt.Errorf("dse: Budget.MaxEvals must be >= 0 (0 = unlimited), got %d", b.MaxEvals)
	}
	if b.Patience < 0 {
		return fmt.Errorf("dse: Budget.Patience must be >= 0 (0 = disabled), got %d", b.Patience)
	}
	return nil
}

// StopReason records why a search ended.
type StopReason string

const (
	// StopExhausted: the strategy had nothing left to propose.
	StopExhausted StopReason = "exhausted"
	// StopBudget: Budget.MaxEvals was reached.
	StopBudget StopReason = "budget"
	// StopPatience: Budget.Patience charged evaluations passed without
	// improving the best fitting EKIT.
	StopPatience StopReason = "patience"
)

// SearchOptions configure one Engine.Search run.
type SearchOptions struct {
	Budget Budget
	// Seed keys the run's RNG. Strategies draw only from Search.Rand —
	// never from global rand — which is what makes a run reproducible:
	// the same seed yields the same proposals, evaluations are pure,
	// and waves are barriers, so the result is identical at any worker
	// count. 0 selects seed 1 so the zero value is deterministic too.
	Seed int64
}

// Outcome pairs a proposed variant with its settled evaluation.
// Exactly one of Point and Err is non-nil.
type Outcome struct {
	Variant Variant
	Point   *Point
	Err     error
}

// TrajectorySample is one step of a search's best-so-far curve,
// recorded after each wave.
type TrajectorySample struct {
	// Wave is the 1-based wave number.
	Wave int
	// Evals is the cumulative charged evaluations after the wave.
	Evals int
	// BestEKIT is the best fitting EKIT kept so far (0 until a fitting
	// point has been kept).
	BestEKIT float64
}

// Search is the per-run state the core threads through a strategy's
// ask/tell calls: the space under exploration, the seeded RNG, the
// budget, and read access to everything evaluated so far. The core
// calls ask and tell from a single goroutine, so strategies need no
// locking and every RNG draw happens in a deterministic order.
type Search struct {
	space   *Space
	workers int
	rng     *rand.Rand
	budget  Budget
	seed    int64

	// charged flags, by Space.Index, the variants evaluated this run;
	// their settled outcomes live in the engine's cell table, cells.
	charged flagTable
	cells   *cellTable
	evals   int
	// barren counts charged evaluations since the kept best improved.
	barren int

	// The kept trajectory: outcomes the strategy accepted, deduplicated
	// (kept flags them by Space.Index), in tell order. This becomes
	// Result.Variants/Points.
	vs      []Variant
	ps      []*Point
	kept    flagTable
	best    *Point
	waves   int
	samples []TrajectorySample
}

// Space returns the space under exploration.
func (sc *Search) Space() *Space { return sc.space }

// Workers is the engine's evaluation parallelism — a sizing hint for
// strategies that wave their proposals to keep the pool fed.
func (sc *Search) Workers() int { return sc.workers }

// Rand is the run's seeded RNG: the only randomness source a strategy
// may use.
func (sc *Search) Rand() *rand.Rand { return sc.rng }

// Budget returns the run's budget.
func (sc *Search) Budget() Budget { return sc.budget }

// Evals returns the evaluations charged so far.
func (sc *Search) Evals() int { return sc.evals }

// Remaining returns the evaluations left under MaxEvals, or MaxInt
// when the budget is unlimited.
func (sc *Search) Remaining() int {
	if sc.budget.MaxEvals <= 0 {
		return math.MaxInt
	}
	return sc.budget.MaxEvals - sc.evals
}

// Lookup returns the settled outcome of a variant this run has already
// evaluated, letting a strategy read back any point it proposed
// without re-asking for it. A variant that is not a point of the space
// was never evaluated: Lookup reports false.
func (sc *Search) Lookup(v Variant) (Outcome, bool) {
	if sc.space.checkVariant(v) != nil {
		return Outcome{}, false
	}
	i := sc.space.Index(v)
	if !sc.charged.has(i) {
		return Outcome{}, false
	}
	c := sc.cells.cell(i)
	return Outcome{Variant: v, Point: c.val, Err: c.err}, true
}

// truncate cuts a proposed wave at the first variant the budget cannot
// afford, charging nothing yet. Variants already seen this run are
// free, so a wave of re-visits passes through untouched.
func (sc *Search) truncate(wave []Variant) (cut []Variant, truncated bool) {
	if sc.budget.MaxEvals <= 0 {
		return wave, false
	}
	left := sc.budget.MaxEvals - sc.evals
	var fresh flagTable
	for i, v := range wave {
		key := sc.space.Index(v)
		if sc.charged.has(key) || fresh.has(key) {
			continue
		}
		if left == 0 {
			return wave[:i], true
		}
		fresh.set(key)
		left--
	}
	return wave, false
}

// evalWave evaluates a wave through the engine's memoised pool and
// settles each outcome in the run, charging one evaluation per variant
// not seen before.
func (e *Engine) evalWave(sc *Search, wave []Variant) []Outcome {
	ps, errs := e.evalAllKeep(wave)
	outs := make([]Outcome, len(wave))
	for i, v := range wave {
		outs[i] = Outcome{Variant: v, Point: ps[i], Err: errs[i]}
		if !sc.charged.set(sc.space.Index(v)) {
			sc.evals++
			sc.barren++
		}
	}
	return outs
}

// commit appends the kept prefix of a wave to the run's trajectory,
// skipping failed outcomes and variants already kept.
func (sc *Search) commit(outs []Outcome) {
	for _, o := range outs {
		if o.Err != nil || o.Point == nil {
			continue
		}
		if sc.kept.set(sc.space.Index(o.Variant)) {
			continue
		}
		sc.vs = append(sc.vs, o.Variant)
		sc.ps = append(sc.ps, o.Point)
		if o.Point.Fits && (sc.best == nil || o.Point.EKIT > sc.best.EKIT) {
			sc.best = o.Point
			sc.barren = 0
		}
	}
}

// sample records the best-so-far curve after a wave.
func (sc *Search) sample() {
	sc.waves++
	s := TrajectorySample{Wave: sc.waves, Evals: sc.evals}
	if sc.best != nil {
		s.BestEKIT = sc.best.EKIT
	}
	sc.samples = append(sc.samples, s)
}

// Search explores the engine's space under the given strategy and
// options: the core repeatedly asks the strategy for the next wave of
// variants, evaluates the wave through the memoised worker pool, and
// tells the strategy the outcomes — until the strategy is done, the
// budget is spent, or patience runs out. The returned Result carries
// the run's provenance (evaluations charged, coverage fraction, stop
// reason, seed) alongside the usual points, walls and best.
func (e *Engine) Search(st Strategy, opts SearchOptions) (*Result, error) {
	if e.Space == nil {
		return nil, fmt.Errorf("dse: engine has no space")
	}
	if err := opts.Budget.check(); err != nil {
		return nil, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	sc := &Search{
		space:   e.Space,
		workers: e.Workers,
		rng:     rand.New(rand.NewSource(seed)),
		budget:  opts.Budget,
		seed:    seed,
		cells:   e.table(),
	}
	run, err := st.start(sc)
	if err != nil {
		return nil, err
	}
	stop := StopExhausted
	for {
		wave, err := run.ask(sc)
		if err != nil {
			return nil, err
		}
		if len(wave) == 0 {
			break
		}
		wave, truncated := sc.truncate(wave)
		if len(wave) > 0 {
			outs := e.evalWave(sc, wave)
			keep, err := run.tell(sc, outs)
			if err != nil {
				return nil, err
			}
			if keep < 0 || keep > len(outs) {
				return nil, fmt.Errorf("dse: strategy %s kept %d of a %d-outcome wave", st.Name(), keep, len(outs))
			}
			sc.commit(outs[:keep])
			sc.sample()
		}
		if truncated {
			stop = StopBudget
			break
		}
		if sc.budget.Patience > 0 && sc.barren >= sc.budget.Patience {
			stop = StopPatience
			break
		}
	}
	r := newResult(e, st.Name(), sc.vs, sc.ps)
	r.Evals = sc.evals
	r.Coverage = float64(sc.evals) / float64(e.Space.Size())
	r.Stop = stop
	r.Seed = seed
	r.Budget = sc.budget
	r.Trajectory = sc.samples
	if err := run.finish(sc, r); err != nil {
		return nil, err
	}
	return r, nil
}

// Run explores the engine's space under the given strategy with an
// unlimited budget and the default seed.
func (e *Engine) Run(st Strategy) (*Result, error) { return e.Search(st, SearchOptions{}) }
