package dse

// This file freezes the pre-search-core batch strategies, verbatim, as
// the reference the rebuilt ask/tell drivers are tested against (see
// search_test.go). Like legacy_test.go, do not "improve" them: their
// value is that they no longer change. The one intentional divergence
// is recorded where it lives: the frozen WallPruned carries the old
// bwWalled flag, which made the first bandwidth-walled point of a
// sweep exempt from the saturation prune (fixed in the rebuilt
// strategy; TestWallPrunedFirstLaneWalled pins the new behaviour, and
// the equivalence test confirms the fix changes nothing on the golden
// spaces).

import (
	"fmt"
	"sort"
)

// legacyResult is the batch strategies' result assembly: walls and best
// derived from the evaluated points, the latter by a scan of its own
// rather than the search core's tracking.
func legacyResult(e *Engine, strategy string, vs []Variant, ps []*Point) *Result {
	r := &Result{Space: e.Space, Strategy: strategy, Variants: vs, Points: ps}
	r.Walls = computeWalls(e.Space, vs, ps)
	r.Best, r.BestVariant = bestOf(vs, ps)
	return r
}

func legacyExploreExhaustive(e *Engine) (*Result, error) {
	vs := e.Space.Enumerate()
	ps, err := e.EvalAll(vs)
	if err != nil {
		return nil, err
	}
	return legacyResult(e, Exhaustive{}.Name(), vs, ps), nil
}

func legacyExploreWallPruned(e *Engine) (*Result, error) {
	li, ok := e.Space.AxisIndex(AxisLanes)
	if !ok {
		r, err := legacyExploreExhaustive(e)
		if err != nil {
			return nil, err
		}
		r.Strategy = WallPruned{}.Name()
		return r, nil
	}

	type group struct {
		key string
		vs  []Variant
	}
	var groups []*group
	byKey := map[string]*group{}
	for _, v := range e.Space.Enumerate() {
		key := ""
		for ai, idx := range v {
			if ai == li {
				continue
			}
			key += fmt.Sprintf("%d:%d,", ai, idx)
		}
		g, ok := byKey[key]
		if !ok {
			g = &group{key: key}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.vs = append(g.vs, v)
	}
	for _, g := range groups {
		sort.SliceStable(g.vs, func(i, j int) bool { return g.vs[i][li] < g.vs[j][li] })
	}

	waveSize := e.Workers
	if waveSize < 1 {
		waveSize = 1
	}

	h := e.startHelpers(e.Workers - 1)
	defer h.stop()
	var vs []Variant
	var ps []*Point
	for _, g := range groups {
		prevEKIT := 0.0
		bwWalled := false
	sweep:
		for lo := 0; lo < len(g.vs); {
			hi := lo + waveSize
			if hi > len(g.vs) {
				hi = len(g.vs)
			}
			wave := g.vs[lo:hi]
			for i, p := range e.runWave(h, wave) {
				if p == nil {
					return nil, e.failure(wave[i])
				}
				vs = append(vs, wave[i])
				ps = append(ps, p)
				if !p.Fits {
					break sweep
				}
				if p.UtilHostBW >= 1 || p.UtilGMemBW >= 1 {
					if bwWalled && p.EKIT <= prevEKIT*(1+saturationGain) {
						break sweep
					}
					bwWalled = true
				}
				prevEKIT = p.EKIT
			}
			lo = hi
		}
	}
	return legacyResult(e, WallPruned{}.Name(), vs, ps), nil
}

// legacyParetoFrontier is the quadratic all-pairs dominance scan the
// sort-based paretoFrontier replaced; TestParetoFrontierMatchesNaive
// holds the two to the same answer and BenchmarkParetoFrontier prices
// the difference.
func legacyParetoFrontier(ps []*Point) []int {
	var front []int
	for i, p := range ps {
		if p == nil || !p.Fits {
			continue
		}
		dominated := false
		for j, q := range ps {
			if i == j || q == nil || !q.Fits {
				continue
			}
			if q.EKIT >= p.EKIT && q.PeakUtil() <= p.PeakUtil() &&
				(q.EKIT > p.EKIT || q.PeakUtil() < p.PeakUtil()) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

func legacyExploreParetoFrontier(e *Engine) (*Result, error) {
	r, err := legacyExploreExhaustive(e)
	if err != nil {
		return nil, err
	}
	r.Strategy = ParetoFrontier{}.Name()
	r.Frontier = legacyParetoFrontier(r.Points)
	return r, nil
}
