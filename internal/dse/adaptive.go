package dse

import (
	"math"
	"slices"
	"sort"
)

// This file holds the adaptive strategies: searches that pay for a
// fraction of the space instead of enumerating it, built for the
// lanes×dv×form×fclk×device spaces whose cross product outgrows an
// exhaustive sweep. Both strategies draw randomness only from the
// run's seeded RNG and propose whole waves between which the core
// barriers, so a run is bit-deterministic for a fixed seed at any
// worker count, in every evaluation mode (model, sim, hybrid).

// searchScore ranks outcomes for the adaptive strategies: fitting
// points by EKIT (the objective of the selected eval mode),
// non-fitting points below every fitting one and ordered toward the
// fitting region (smaller peak utilisation first), failures last. The
// ordering lets a climber started outside the feasible region walk
// back into it.
func searchScore(o Outcome, ok bool) float64 {
	if !ok || o.Err != nil || o.Point == nil {
		return math.Inf(-1)
	}
	if o.Point.Fits {
		return o.Point.EKIT
	}
	return -o.Point.PeakUtil()
}

// neighbours returns the ±1-step moves of a variant: for each axis in
// order, the variant one value-index below and one above, skipped at
// the axis ends. The order is fixed, which keeps tie-breaking — and
// therefore the whole search — deterministic. The moves share one
// backing array, each capped at its own length (as Enumerate's are), so
// appending to one never writes into the next.
func neighbours(s *Space, v Variant) []Variant {
	axes := s.Axes()
	out := make([]Variant, 0, 2*len(axes))
	all := make([]int, 0, 2*len(axes)*len(v))
	for ai := range axes {
		for _, d := range [2]int{-1, +1} {
			idx := v[ai] + d
			if idx < 0 || idx >= len(axes[ai].Values) {
				continue
			}
			k := len(all)
			all = append(all, v...)
			n := Variant(all[k : k+len(v) : k+len(v)])
			n[ai] = idx
			out = append(out, n)
		}
	}
	return out
}

// addOnce appends v to wave unless seen already holds its index,
// recording the index in seen; it returns both slices. seen is scanned
// linearly: an adaptive wave holds a few dozen variants at most
// (numClimbers·2·axes), where a scan beats hashing into a fresh map.
func addOnce(s *Space, wave []Variant, seen []int, v Variant) ([]Variant, []int) {
	key := s.Index(v)
	if slices.Contains(seen, key) {
		return wave, seen
	}
	return append(wave, v), append(seen, key)
}

// centerVariant is the mid-point of every axis: the deterministic
// anchor of the seeding wave.
func centerVariant(s *Space) Variant {
	axes := s.Axes()
	v := make(Variant, len(axes))
	for ai := range axes {
		v[ai] = len(axes[ai].Values) / 2
	}
	return v
}

// randomVariant draws one uniform variant from the run's RNG.
func randomVariant(sc *Search) Variant {
	axes := sc.Space().Axes()
	v := make(Variant, len(axes))
	for ai := range axes {
		v[ai] = sc.Rand().Intn(len(axes[ai].Values))
	}
	return v
}

// HillClimb is restarted local search: a probe wave seeds numClimbers
// independent climbers at the most promising candidates — ranked by
// the cost model's EKIT, which every evaluation mode carries, so the
// model's microsecond points steer even a simulation-backed run — and
// each climber then repeatedly moves to its best strictly-improving
// ±1-step neighbour until it sits on a local optimum. Neighbourhoods
// are proposed as one wave per round, so the memoised pool evaluates
// them concurrently and re-visited points are free.
type HillClimb struct{}

// The climb's shape: numClimbers independent climbers, seeded from a
// probe wave of probeWaveSize candidates (capped at the space size) —
// the space centre plus seeded draws.
const (
	numClimbers   = 3
	probeWaveSize = 3 * numClimbers
)

// Name implements Strategy.
func (HillClimb) Name() string { return "hillclimb" }

func (HillClimb) start(sc *Search) (searcher, error) {
	space := sc.Space()
	probes := min(probeWaveSize, space.Size())
	// The probe set: the centre plus seeded uniform draws, deduplicated.
	// The draw loop is bounded so a tiny space cannot spin it forever.
	r := &hillClimbRun{}
	var wave []Variant
	wave, r.seen = addOnce(space, wave, r.seen, centerVariant(space))
	for tries := 0; len(wave) < probes && tries < 32*probes; tries++ {
		wave, r.seen = addOnce(space, wave, r.seen, randomVariant(sc))
	}
	r.probe = wave
	return r, nil
}

// hillClimbRun is the per-run climber state.
type hillClimbRun struct {
	probe    []Variant // pending seeding wave; nil once told
	climbers []Variant // current position of each active climber
	// seen is the per-run scratch set of Space indices: the variants of
	// the wave ask is building, or the positions climb has handed out.
	seen []int
}

func (r *hillClimbRun) ask(sc *Search) ([]Variant, error) {
	if r.probe != nil {
		return r.probe, nil
	}
	if len(r.climbers) == 0 {
		return nil, nil
	}
	// One wave per round: the union of every climber's neighbourhood.
	// The wave is fresh each round: the core may keep it.
	var wave []Variant
	r.seen = r.seen[:0]
	for _, cur := range r.climbers {
		for _, n := range neighbours(sc.Space(), cur) {
			wave, r.seen = addOnce(sc.Space(), wave, r.seen, n)
		}
	}
	return wave, nil
}

func (r *hillClimbRun) tell(sc *Search, wave []Variant, points []*Point) (int, error) {
	if r.probe != nil {
		r.seed(wave, points)
		return len(wave), nil
	}
	r.climb(sc)
	return len(wave), nil
}

// seed ranks the probe points by the model's EKIT and starts one
// climber at each of the top numClimbers candidates.
func (r *hillClimbRun) seed(wave []Variant, points []*Point) {
	r.probe = nil
	scores := make([]float64, len(wave))
	for i, p := range points {
		switch {
		case p == nil:
			scores[i] = math.Inf(-1)
		case p.Fits:
			scores[i] = p.ModelEKIT
		default:
			scores[i] = -p.PeakUtil()
		}
	}
	idx := make([]int, len(wave))
	for i := range idx {
		idx[i] = i
	}
	// Stable sort by descending model score: probe order breaks ties,
	// so the seeding is deterministic.
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	for i := 0; i < len(idx) && i < numClimbers; i++ {
		if points[idx[i]] != nil {
			r.climbers = append(r.climbers, wave[idx[i]])
		}
	}
}

// climb moves every climber to its best strictly-improving neighbour,
// retiring climbers that sit on a local optimum (or whose position
// another climber already holds).
func (r *hillClimbRun) climb(sc *Search) {
	var next []Variant
	r.seen = r.seen[:0] // the positions held after this round
	for _, cur := range r.climbers {
		curScore := searchScore(sc.Lookup(cur))
		moved := cur
		bestScore := curScore
		for _, n := range neighbours(sc.Space(), cur) {
			if s := searchScore(sc.Lookup(n)); s > bestScore {
				bestScore, moved = s, n
			}
		}
		if bestScore <= curScore {
			continue // local optimum: this climber is done
		}
		// A position another climber already holds merges the two.
		next, r.seen = addOnce(sc.Space(), next, r.seen, moved)
	}
	r.climbers = next
}

func (r *hillClimbRun) finish(sc *Search, res *Result) error { return nil }

// Anneal is simulated annealing over the space: annealChains
// independent walkers each propose one random ±1-step move per wave,
// accepted by the Metropolis rule on the relative EKIT change at the
// current temperature, which cools geometrically every wave. Early wave
// acceptances cross throughput valleys a hill-climber cannot; by the
// final waves the walk is effectively greedy. The run ends after
// annealSteps waves (or earlier, under the search budget).
type Anneal struct{}

// The annealing schedule: annealChains walkers over annealSteps cooling
// waves, starting at temperature annealT0 as a relative score delta (a
// 20% worse point starts ~e⁻¹ likely to be taken) and cooling by the
// factor annealCooling per wave.
const (
	annealChains  = 2
	annealSteps   = 64
	annealT0      = 0.2
	annealCooling = 0.95
)

// Name implements Strategy.
func (Anneal) Name() string { return "anneal" }

func (Anneal) start(sc *Search) (searcher, error) {
	starts := make([]Variant, annealChains)
	for i := range starts {
		starts[i] = randomVariant(sc)
	}
	return &annealRun{temp: annealT0, starts: starts,
		current: make([]Variant, annealChains), proposed: make([]Variant, annealChains)}, nil
}

// annealRun is the per-run walker state.
type annealRun struct {
	temp   float64
	step   int
	starts []Variant // pending start wave; nil once told

	current  []Variant
	proposed []Variant // this wave's proposal per chain
	seen     []int     // scratch: the Space indices of this wave
}

func (r *annealRun) ask(sc *Search) ([]Variant, error) {
	if r.starts != nil {
		return r.starts, nil
	}
	if r.step >= annealSteps {
		return nil, nil
	}
	// One proposal per chain, drawn in chain order so the RNG stream —
	// and with it the whole walk — is reproducible. The wave is fresh
	// each step: the core may keep it.
	wave := make([]Variant, 0, len(r.current))
	r.seen = r.seen[:0]
	for i, cur := range r.current {
		ns := neighbours(sc.Space(), cur)
		if len(ns) == 0 {
			r.proposed[i] = cur
			continue
		}
		p := ns[sc.Rand().Intn(len(ns))]
		r.proposed[i] = p
		wave, r.seen = addOnce(sc.Space(), wave, r.seen, p)
	}
	if len(wave) == 0 {
		return nil, nil
	}
	return wave, nil
}

func (r *annealRun) tell(sc *Search, wave []Variant, points []*Point) (int, error) {
	if r.starts != nil {
		// Settle the chains on their start points; a failed start stays
		// put at score -Inf and escapes through its first proposal.
		for i, v := range r.starts {
			r.current[i] = v
		}
		r.starts = nil
		return len(wave), nil
	}
	for i, p := range r.proposed {
		cur := r.current[i]
		if sc.Space().Index(p) == sc.Space().Index(cur) {
			continue
		}
		if r.accept(sc, searchScore(sc.Lookup(cur)), searchScore(sc.Lookup(p))) {
			r.current[i] = p
		}
	}
	r.step++
	r.temp *= annealCooling
	return len(wave), nil
}

// accept is the Metropolis rule on the relative score change: an
// improvement is always taken, a regression with probability
// exp(Δ/T), Δ the relative worsening. The acceptance draw comes from
// the run's RNG in chain order, keeping the walk deterministic.
func (r *annealRun) accept(sc *Search, cur, next float64) bool {
	if next > cur {
		return true
	}
	if math.IsInf(next, -1) {
		return false // never walk onto a failed point
	}
	// Relative worsening: scale by |cur| for fitting scores (EKIT has
	// arbitrary magnitude); non-fitting scores are already ~O(1)
	// utilisation fractions.
	delta := next - cur
	if cur > 0 {
		delta /= cur
	}
	return sc.Rand().Float64() < math.Exp(delta/r.temp)
}

func (r *annealRun) finish(sc *Search, res *Result) error { return nil }
