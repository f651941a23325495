package dse

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Strategy decides which points of the space an Engine evaluates and
// in what order. A Strategy value is pure configuration — reusable and
// safe to share across runs; the per-run state lives in the searcher
// its start hook returns, which the core drives through the ask/tell
// loop of Engine.Search. Strategies never change what a point costs —
// only evaluation coverage — so any two strategies agree wherever they
// overlap.
type Strategy interface {
	Name() string
	// start begins a run over the search context, returning the per-run
	// searcher state.
	start(sc *Search) (searcher, error)
}

// searcher is the per-run half of a strategy: the core alternates ask
// (propose the next wave of variants; an empty wave ends the run) and
// tell (observe the evaluated wave: its points in proposal order, nil
// where an evaluation failed, whose error Search.Lookup reads back).
// tell returns how many leading variants of the wave join the result —
// a pruning strategy cuts a wave where a serial sweep would have
// stopped, so the speculatively evaluated tail never reaches the
// result. finish runs once on the assembled Result (the Pareto strategy
// fills the frontier there).
//
// A wave belongs to the core once ask returns it: the core may keep
// the wave's own slice as Result.Variants, so a strategy must not
// modify a wave it has handed over (it may keep reading it).
type searcher interface {
	ask(sc *Search) ([]Variant, error)
	tell(sc *Search, wave []Variant, points []*Point) (keep int, err error)
	finish(sc *Search, r *Result) error
}

// strategySpec is one entry of the strategy table: the canonical name
// the CLI flag parses and prints, accepted aliases, a one-line usage
// string, whether the strategy is an adaptive search (budget and seed
// matter, coverage is partial), and the factory returning a fresh
// Strategy.
type strategySpec struct {
	Name     string
	Aliases  []string
	Usage    string
	Adaptive bool
	New      func() Strategy
}

// strategies is the strategy table in CLI order — the single source
// the flag parser, the name list and the CLI help all read, so they
// cannot drift apart. No two names or aliases may collide
// (TestStrategyNamesDistinct).
var strategies = []strategySpec{
	{
		Name:  "exhaustive",
		Usage: "evaluate every point of the space",
		New:   func() Strategy { return Exhaustive{} },
	},
	{
		Name:    "wall-pruned",
		Aliases: []string{"wallpruned", "pruned"},
		Usage:   "stop each lane sweep once a Fig 15 wall is crossed and throughput saturates",
		New:     func() Strategy { return WallPruned{} },
	},
	{
		Name:    "pareto",
		Aliases: []string{"pareto-frontier"},
		Usage:   "exhaustive plus the EKIT-vs-peak-utilisation Pareto frontier",
		New:     func() Strategy { return ParetoFrontier{} },
	},
	{
		Name:     "hillclimb",
		Aliases:  []string{"hill-climb", "hc"},
		Usage:    "restarted hill-climbing from model-seeded starts, ±1-step moves per axis",
		Adaptive: true,
		New:      func() Strategy { return HillClimb{} },
	},
	{
		Name:     "anneal",
		Aliases:  []string{"annealing", "simulated-annealing", "sa"},
		Usage:    "simulated annealing: geometric cooling, Metropolis acceptance on EKIT",
		Adaptive: true,
		New:      func() Strategy { return Anneal{} },
	},
}

// lookupStrategy resolves a canonical name or an alias against the
// table.
func lookupStrategy(name string) (strategySpec, bool) {
	for _, sp := range strategies {
		if name == sp.Name || slices.Contains(sp.Aliases, name) {
			return sp, true
		}
	}
	return strategySpec{}, false
}

// ParseStrategy resolves a -strategy flag value against the table; the
// empty string selects the first strategy (exhaustive).
func ParseStrategy(name string) (Strategy, error) {
	if name == "" {
		return strategies[0].New(), nil
	}
	if sp, ok := lookupStrategy(name); ok {
		return sp.New(), nil
	}
	return nil, fmt.Errorf("dse: unknown strategy %q (have: %v)", name, StrategyNames())
}

// StrategyNames lists the canonical strategy names in table order — by
// construction exactly the names ParseStrategy accepts.
func StrategyNames() []string {
	names := make([]string, len(strategies))
	for i, sp := range strategies {
		names[i] = sp.Name
	}
	return names
}

// StrategyIsAdaptive reports whether the named strategy is an adaptive
// search. Like ParseStrategy it resolves aliases, so the two can never
// disagree about a flag value.
func StrategyIsAdaptive(name string) bool {
	sp, ok := lookupStrategy(name)
	return ok && sp.Adaptive
}

// StrategyHelp renders the table as the multi-line flag help text.
func StrategyHelp() string {
	var b strings.Builder
	for i, sp := range strategies {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s: %s", sp.Name, sp.Usage)
	}
	return b.String()
}

// Exhaustive evaluates every point of the space.
type Exhaustive struct{}

// Name implements Strategy.
func (Exhaustive) Name() string { return "exhaustive" }

func (Exhaustive) start(sc *Search) (searcher, error) { return &exhaustiveRun{}, nil }

// exhaustiveRun proposes the full enumeration as one wave, so the
// memoised pool sees exactly the batch the batch-era strategy fed it.
type exhaustiveRun struct{ asked bool }

func (r *exhaustiveRun) ask(sc *Search) ([]Variant, error) {
	if r.asked {
		return nil, nil
	}
	r.asked = true
	return sc.Space().Enumerate(), nil
}

func (r *exhaustiveRun) tell(sc *Search, wave []Variant, points []*Point) (int, error) {
	// Fail on the lowest-indexed failing variant, so errors are
	// deterministic regardless of worker scheduling.
	for i, p := range points {
		if p != nil {
			continue
		}
		if o, _ := sc.Lookup(wave[i]); o.Err != nil {
			return 0, o.Err
		}
	}
	return len(wave), nil
}

func (r *exhaustiveRun) finish(sc *Search, res *Result) error { return nil }

// WallPruned sweeps the lanes axis in ascending order and stops once a
// wall of Fig 15 has been crossed and nothing further can be gained:
//
//   - at the computation wall the first non-fitting variant ends the
//     axis — resource use grows monotonically with lanes, so nothing
//     beyond it fits either (a lossless prune);
//   - past a host- or DRAM-bandwidth wall throughput is bounded by the
//     link, but the fill and priming terms still improve with lanes, so
//     the sweep continues until the per-lane EKIT gain falls under
//     saturationGain — the flat tail of Fig 15 is skipped, not the
//     climb toward it. The check compares every walled point against
//     its predecessor, so a sweep that is already saturated when it
//     crosses the wall — or whose very first lane count is walled —
//     prunes at the first flat walled point instead of always paying
//     for one more.
//
// Every combination of the other axes gets its own pruned lane sweep.
// Without a lanes axis it degrades to Exhaustive.
type WallPruned struct{}

// Name implements Strategy.
func (WallPruned) Name() string { return "wall-pruned" }

// saturationGain is the relative EKIT improvement under which a
// bandwidth-walled sweep is considered saturated.
const saturationGain = 0.01

func (st WallPruned) start(sc *Search) (searcher, error) {
	li, ok := sc.Space().AxisIndex(AxisLanes)
	if !ok {
		return &exhaustiveRun{}, nil
	}
	waveSize := sc.Workers()
	if waveSize < 1 {
		// Guard against a zero-value Engine built without NewEngine: an
		// empty wave would never advance the sweep.
		waveSize = 1
	}
	return &wallPrunedRun{groups: groupVariants(sc.Space(), li), waveSize: waveSize}, nil
}

// wallPrunedRun walks one group (one combination of the non-lanes
// axes) at a time, proposing waves of Workers points so pruning still
// feeds the pool.
type wallPrunedRun struct {
	groups   [][]Variant
	waveSize int

	g, lo    int
	prevEKIT float64
}

func (r *wallPrunedRun) ask(sc *Search) ([]Variant, error) {
	for r.g < len(r.groups) {
		g := r.groups[r.g]
		if r.lo >= len(g) {
			r.nextGroup()
			continue
		}
		hi := r.lo + r.waveSize
		if hi > len(g) {
			hi = len(g)
		}
		wave := g[r.lo:hi]
		r.lo = hi
		return wave, nil
	}
	return nil, nil
}

func (r *wallPrunedRun) nextGroup() {
	r.g++
	r.lo = 0
	r.prevEKIT = 0
}

func (r *wallPrunedRun) tell(sc *Search, wave []Variant, points []*Point) (int, error) {
	// Consume the wave in axis order so behaviour is worker-count
	// independent: an error past the prune point is never reached,
	// exactly as a serial sweep would never have evaluated it.
	for i, p := range points {
		if p == nil {
			o, _ := sc.Lookup(wave[i])
			return 0, o.Err
		}
		if !p.Fits {
			// Computation wall: nothing beyond fits.
			r.nextGroup()
			return i + 1, nil
		}
		if p.UtilHostBW >= 1 || p.UtilGMemBW >= 1 {
			// Bandwidth wall crossed; prune once throughput has
			// saturated relative to the previous point. prevEKIT is 0
			// for the first point of a group, so a group that starts
			// walled still evaluates its first point.
			if p.EKIT <= r.prevEKIT*(1+saturationGain) {
				r.nextGroup()
				return i + 1, nil
			}
		}
		r.prevEKIT = p.EKIT
	}
	return len(wave), nil
}

func (r *wallPrunedRun) finish(sc *Search, res *Result) error { return nil }

// groupVariants partitions the enumeration into per-group lane sweeps:
// one group per combination of the non-lanes axes, in enumeration
// order. Groups key on the canonical Space.Index with the lanes-axis
// contribution zeroed out — the dense coordinate over the remaining
// axes, a single comparable int (see BenchmarkWallPrunedGrouping for
// the cost against formatted-string keys). Enumeration is row-major,
// so within a group the lanes-axis index is already ascending and
// pruning can walk the axis bottom-up without a sort.
func groupVariants(s *Space, li int) [][]Variant {
	laneStride := s.strides[li]
	nGroups := s.Size() / len(s.Axes()[li].Values)
	byKey := make(map[int]int, nGroups)
	groups := make([][]Variant, 0, nGroups)
	for _, v := range s.Enumerate() {
		key := s.Index(v) - v[li]*laneStride
		gi, ok := byKey[key]
		if !ok {
			gi = len(groups)
			byKey[key] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], v)
	}
	return groups
}

// ParetoFrontier evaluates the whole space, then marks the points on
// the EKIT-versus-peak-resource-utilisation Pareto frontier: the
// designs where more throughput cannot be had without spending a
// larger fraction of the device. Only fitting points qualify.
type ParetoFrontier struct{}

// Name implements Strategy.
func (ParetoFrontier) Name() string { return "pareto" }

func (ParetoFrontier) start(sc *Search) (searcher, error) { return &paretoRun{}, nil }

// paretoRun is exhaustive coverage plus the frontier fill at finish.
type paretoRun struct{ exhaustiveRun }

func (r *paretoRun) finish(sc *Search, res *Result) error {
	res.Frontier = paretoFrontier(res.Points)
	return nil
}

// paretoFrontier returns the indices of the fitting points on the
// EKIT-versus-peak-utilisation Pareto frontier, ascending. One sort
// plus a linear scan over utilisation groups replaces the quadratic
// all-pairs dominance test (see BenchmarkParetoFrontier): a point
// survives its group iff it carries the group's maximum EKIT, and
// survives the smaller-utilisation points iff its EKIT strictly
// exceeds everything seen before its group.
func paretoFrontier(ps []*Point) []int {
	type cand struct {
		idx  int
		util float64
		ekit float64
	}
	cands := make([]cand, 0, len(ps))
	for i, p := range ps {
		if p == nil || !p.Fits {
			continue
		}
		cands = append(cands, cand{idx: i, util: p.PeakUtil(), ekit: p.EKIT})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].util != cands[b].util {
			return cands[a].util < cands[b].util
		}
		return cands[a].ekit > cands[b].ekit
	})
	var front []int
	bestBefore := math.Inf(-1)
	for lo := 0; lo < len(cands); {
		hi := lo
		gmax := math.Inf(-1)
		for hi < len(cands) && cands[hi].util == cands[lo].util {
			if cands[hi].ekit > gmax {
				gmax = cands[hi].ekit
			}
			hi++
		}
		for k := lo; k < hi; k++ {
			// Equal on both objectives means mutually non-dominating:
			// duplicates of the group maximum all stay on the frontier.
			if c := cands[k]; c.ekit == gmax && c.ekit > bestBefore {
				front = append(front, c.idx)
			}
		}
		if gmax > bestBefore {
			bestBefore = gmax
		}
		lo = hi
	}
	sort.Ints(front)
	return front
}
