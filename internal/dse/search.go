package dse

import (
	"fmt"
	"math/rand"
	"slices"
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
}

// check rejects a negative cap: 0 is the only spelling of "off", so a
// negative value is a caller's mistake, never an unlimited run.
func (b Budget) check() error {
	if b.MaxEvals < 0 {
		return fmt.Errorf("dse: Budget.MaxEvals must be >= 0 (0 = unlimited), got %d", b.MaxEvals)
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

// Outcome is what Search.Lookup reads back for an evaluated variant:
// the variant and its settled evaluation. Exactly one of Point and Err
// is non-nil.
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

	// charged flags, by Space.Index, the variants evaluated this run
	// (charge flags a wave just before the core evaluates it); their
	// settled outcomes live in the engine's cell table, cells.
	charged flagTable
	cells   *cellTable
	evals   int

	// The kept trajectory: points the strategy accepted, deduplicated
	// (kept flags them by Space.Index), in tell order. This becomes
	// Result.Variants/Points, and best (with its variant) Result.Best.
	vs          []Variant
	ps          []*Point
	kept        flagTable
	best        *Point
	bestVariant Variant
	waves       int
	samples     []TrajectorySample
}

// Space returns the space under exploration.
func (sc *Search) Space() *Space { return sc.space }

// Workers is the engine's evaluation parallelism — a sizing hint for
// strategies that wave their proposals to keep the pool fed.
func (sc *Search) Workers() int { return sc.workers }

// Rand is the run's seeded RNG: the only randomness source a strategy
// may use.
func (sc *Search) Rand() *rand.Rand { return sc.rng }

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

// charge charges one evaluation to each variant of a proposed wave not
// seen this run, and cuts the wave at the first variant the budget
// cannot afford. Variants already seen are free, so a wave of re-visits
// passes through untouched. The core evaluates exactly the cut wave.
func (sc *Search) charge(wave []Variant) (cut []Variant, truncated bool) {
	for i, v := range wave {
		key := sc.space.Index(v)
		if sc.charged.has(key) {
			continue
		}
		if sc.budget.MaxEvals > 0 && sc.evals == sc.budget.MaxEvals {
			return wave[:i], true
		}
		sc.charged.set(key)
		sc.evals++
	}
	return wave, false
}

// commit keeps the told prefix of a wave in one pass: each evaluated
// point not kept before joins the run's trajectory in wave order, and
// the best fitting point is tracked as it is kept (earlier points win
// ties, as in bestOf). When nothing is kept yet and the whole prefix is
// fresh (every point evaluated, no variant kept before), the trajectory
// is the wave's own slices, capped so that a later append copies
// instead of writing into the strategy's array; otherwise room for the
// whole prefix is reserved once.
func (sc *Search) commit(vs []Variant, ps []*Point) {
	adopt := len(sc.vs) == 0 && len(ps) > 0
	if !adopt {
		sc.vs = slices.Grow(sc.vs, len(ps))
		sc.ps = slices.Grow(sc.ps, len(ps))
	}
	for i, p := range ps {
		if p == nil || sc.kept.set(sc.space.Index(vs[i])) {
			if adopt {
				// Not wholly fresh: copy what the wave kept so far.
				adopt = false
				sc.vs = append(make([]Variant, 0, len(ps)), vs[:i]...)
				sc.ps = append(make([]*Point, 0, len(ps)), ps[:i]...)
			}
			continue
		}
		if !adopt {
			sc.vs = append(sc.vs, vs[i])
			sc.ps = append(sc.ps, p)
		}
		if p.Fits && (sc.best == nil || p.EKIT > sc.best.EKIT) {
			sc.best, sc.bestVariant = p, vs[i]
		}
	}
	if adopt {
		n := len(ps)
		sc.vs, sc.ps = vs[:n:n], ps[:n:n]
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
// tells the strategy the wave's points — until the strategy is done or
// the budget is spent. The returned Result carries the run's provenance
// (evaluations charged, coverage fraction, stop reason, seed) alongside
// the usual points, walls and best.
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
	// The run's helpers live until Search returns, whichever way.
	h := e.startHelpers(e.Workers - 1)
	defer h.stop()
	stop := StopExhausted
	for {
		wave, err := run.ask(sc)
		if err != nil {
			return nil, err
		}
		if len(wave) == 0 {
			break
		}
		wave, truncated := sc.charge(wave)
		if len(wave) > 0 {
			points := e.runWave(h, wave)
			keep, err := run.tell(sc, wave, points)
			if err != nil {
				return nil, err
			}
			if keep < 0 || keep > len(wave) {
				return nil, fmt.Errorf("dse: strategy %s kept %d of a %d-outcome wave", st.Name(), keep, len(wave))
			}
			sc.commit(wave[:keep], points[:keep])
			sc.sample()
		}
		if truncated {
			stop = StopBudget
			break
		}
	}
	r := &Result{
		Space:       e.Space,
		Strategy:    st.Name(),
		Variants:    sc.vs,
		Points:      sc.ps,
		Best:        sc.best,
		BestVariant: sc.bestVariant,
		Walls:       computeWalls(e.Space, sc.vs, sc.ps),
		Evals:       sc.evals,
		Coverage:    float64(sc.evals) / float64(e.Space.Size()),
		Stop:        stop,
		Seed:        seed,
		Budget:      sc.budget,
		Trajectory:  sc.samples,
	}
	if err := run.finish(sc, r); err != nil {
		return nil, err
	}
	return r, nil
}

// Run explores the engine's space under the given strategy with an
// unlimited budget and the default seed.
func (e *Engine) Run(st Strategy) (*Result, error) { return e.Search(st, SearchOptions{}) }
