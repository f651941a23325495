package dse

// Micro-benchmarks for the two WallPruned/Pareto hot spots the search
// refactor replaced: the quadratic all-pairs frontier scan (now one
// sort plus a linear pass) and the fmt.Sprintf-concatenated group keys
// (now a mixed-radix int), and the budgeted shelf search at one and two
// workers. Run with:
//
//	go test ./internal/dse -run xxx -bench 'ParetoFrontier|Grouping|ShelfSearch' -benchmem

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/perf"
)

// dseShapedPoints is the frontier benchmark cloud: EKIT strongly
// correlated with utilisation plus noise — the shape a real sweep
// produces (throughput climbs with spent resources), which puts a
// large fraction of points on the frontier. That is the quadratic
// scan's worst case: with few dominators, its early exit almost never
// fires. The uncorrelated property-test cloud would flatter it.
func dseShapedPoints(n int, seed int64) []*Point {
	rng := kernels.NewLCG(seed)
	ps := make([]*Point, n)
	for i := range ps {
		util := float64(rng.Next()%100000) / 100000
		ps[i] = &Point{
			Fits:     true,
			EKIT:     util*100 + float64(rng.Next()%1000)/1000,
			UtilALUT: util,
		}
	}
	return ps
}

// BenchmarkParetoFrontier prices the frontier extraction on seeded
// DSE-shaped point clouds past the 1k-point mark, sorted pass vs the
// frozen naive scan.
func BenchmarkParetoFrontier(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		ps := dseShapedPoints(n, 1)
		b.Run(fmt.Sprintf("sorted/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				paretoFrontier(ps)
			}
		})
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				legacyParetoFrontier(ps)
			}
		})
	}
}

// benchSpace1k is a >=1k-point 4-axis space (16·4·2·8 = 1024).
func benchSpace1k(b *testing.B) *Space {
	b.Helper()
	space, err := NewSpace(
		LanesAxis(LaneCounts(16)),
		DVAxis([]int{1, 2, 4, 8}),
		FormAxis(perf.FormA, perf.FormB),
		FclkAxis([]int{100, 125, 150, 175, 200, 225, 250, 275}),
	)
	if err != nil {
		b.Fatal(err)
	}
	return space
}

// BenchmarkWallPrunedGrouping prices the per-explore grouping of a
// 1024-point space into lane sweeps: the mixed-radix int keys against
// the frozen string-key construction.
func BenchmarkWallPrunedGrouping(b *testing.B) {
	space := benchSpace1k(b)
	li, _ := space.AxisIndex(AxisLanes)
	b.Run("int-key", func(b *testing.B) {
		var groups [][]Variant
		for i := 0; i < b.N; i++ {
			groups = groupVariants(space, li)
		}
		b.ReportMetric(float64(len(groups)), "groups")
	})
	b.Run("string-key", func(b *testing.B) {
		var groups int
		for i := 0; i < b.N; i++ {
			byKey := map[string][]Variant{}
			for _, v := range space.Enumerate() {
				key := ""
				for ai, idx := range v {
					if ai == li {
						continue
					}
					key += fmt.Sprintf("%d:%d,", ai, idx)
				}
				byKey[key] = append(byKey[key], v)
			}
			groups = len(byKey)
		}
		b.ReportMetric(float64(groups), "groups")
	})
}

// BenchmarkShelfSearch prices budgeted searches over a device shelf,
// shaped like the end-to-end benchmark's shelf-search workload: 8
// seeded hillclimb and 8 seeded anneal searches per op, budget 2,000
// each, over lanes 1..16 × dv 1..16 × form {A,B} × 1,000 fclk values ×
// the 3-device shelf (1,536,000 points). Every search builds a fresh
// evaluator and engine, as tytradse does; calibration is shared and
// untimed. Waves are small (1–2 variants for anneal, ~20 for
// hillclimb), so j2 against j1 prices per-wave worker overhead.
func BenchmarkShelfSearch(b *testing.B) {
	shelf, err := device.Shelf("stratix-v-gsd8-edu", "stratix-v-gsd8", "virtex-7-690t")
	if err != nil {
		b.Fatal(err)
	}
	fclk := make([]int, 1000)
	for i := range fclk {
		fclk[i] = 100 + 2*i
	}
	space, err := NewSpace(
		LanesAxis(LaneCounts(16)),
		DVAxis(LaneCounts(16)),
		FormAxis(perf.FormA, perf.FormB),
		FclkAxis(fclk),
		DeviceAxis(shelf...),
	)
	if err != nil {
		b.Fatal(err)
	}
	cache := NewModelCache()
	for _, t := range shelf {
		if _, _, err := cache.Models(t); err != nil {
			b.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("j%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			evals := 0
			for i := 0; i < b.N; i++ {
				for seed := int64(1); seed <= 8; seed++ {
					for _, st := range []Strategy{HillClimb{}, Anneal{}} {
						eval, err := NewDeviceModeEvaluatorCache(EvalModel, shelf, sorBuilder,
							perf.Workload{NKI: 10}, perf.FormB, SimConfig{}, cache)
						if err != nil {
							b.Fatal(err)
						}
						r, err := NewEngine(space, eval, workers).Search(st,
							SearchOptions{Seed: seed, Budget: Budget{MaxEvals: 2000}})
						if err != nil {
							b.Fatal(err)
						}
						evals += r.Evals
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evals), "ns/eval")
		})
	}
}
