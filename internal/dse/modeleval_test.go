package dse

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/tir"
)

// TestSpaceIndexRoundTrip is the dense-index property test: over a set
// of randomised axis shapes, Index must agree with Enumerate's order
// (variant i of the enumeration has index i), so the Size variants
// cover the whole range [0, Size) exactly once.
func TestSpaceIndexRoundTrip(t *testing.T) {
	rng := kernels.NewLCG(7)
	shapes := [][]int{
		{1}, {5}, {16, 4}, {2, 3, 5}, {1, 7, 1, 3},
	}
	// A few random shapes on top of the fixed ones.
	for i := 0; i < 8; i++ {
		n := 1 + int(rng.Next()%4)
		shape := make([]int, n)
		for j := range shape {
			shape[j] = 1 + int(rng.Next()%6)
		}
		shapes = append(shapes, shape)
	}
	for _, shape := range shapes {
		axes := make([]Axis, len(shape))
		for ai, n := range shape {
			vals := make([]int, n)
			for i := range vals {
				vals[i] = i + 1
			}
			axes[ai] = Axis{Name: fmt.Sprintf("ax%d", ai), Values: vals}
		}
		s, err := NewSpace(axes...)
		if err != nil {
			t.Fatal(err)
		}
		vs := s.Enumerate()
		if len(vs) != s.Size() {
			t.Fatalf("shape %v: Enumerate yields %d variants, Size is %d", shape, len(vs), s.Size())
		}
		for i, v := range vs {
			if got := s.Index(v); got != i {
				t.Fatalf("shape %v: Index(%v) = %d, enumeration position %d", shape, v, got, i)
			}
		}
	}
}

// modelDiffSpace is the differential corpus: every axis the model
// evaluator prices, with lane counts off the powers of two and dv
// values that exercise the controller's integer division both ways.
func modelDiffSpace(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace(
		LanesAxis([]int{1, 2, 3, 4, 8}),
		DVAxis([]int{1, 2, 3, 5, 8}),
		FormAxis(perf.FormA, perf.FormB),
		FclkAxis([]int{100, 200}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// diffFamilies are the kernel families the engine-level differentials
// price: sor, and srad, whose clamps are compares and selects, which
// sor lacks. Every lane count of the differential spaces divides srad's
// 24x19 image.
var diffFamilies = []struct {
	name  string
	build VariantBuilder
}{
	{"sor", sorBuilder},
	{"srad", func(lanes int) (*tir.Module, error) {
		return kernels.SRADSpec{Rows: 24, Cols: 19, Lanes: lanes}.Module()
	}},
}

// oracleEval returns the model-mode evaluator over the shelf with
// every entry's estimator replaced, through the estimateFn seam, by the
// tree-walk oracle: the reference the engine-level differentials
// compare the production evaluator against.
func oracleEval(t *testing.T, shelf []*device.Target, cache *ModelCache, build VariantBuilder,
	w perf.Workload) Evaluator {
	t.Helper()
	de, err := newEvaluator(EvalModel, shelf, cache, build, w, perf.FormB, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range shelf {
		me, err := de.modelEvalFor(i)
		if err != nil {
			t.Fatal(err)
		}
		me.estimateFn = me.mdl.EstimateOracle
	}
	return de.eval
}

// evalAll evaluates every point of the space on a fresh engine.
func evalAll(t *testing.T, space *Space, ev Evaluator, workers int) []*Point {
	t.Helper()
	ps, err := NewEngine(space, ev, workers).EvalAll(space.Enumerate())
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestCompiledTreeEngineDifferential pins the compiled estimate
// program bit-identical to the tree-walk oracle through the whole
// engine assembly: the same space evaluated by the production
// evaluator and by one whose estimator is the oracle must produce
// deeply equal points — estimates, utilisations, EKIT, everything — at
// every worker count.
func TestCompiledTreeEngineDifferential(t *testing.T) {
	mdl, bw := fixtures(t)
	space := modelDiffSpace(t)
	w := perf.Workload{NKI: 10}
	for _, fam := range diffFamilies {
		t.Run(fam.name, func(t *testing.T) {
			want := evalAll(t, space, oracleEval(t, []*device.Target{mdl.Target}, seeded(mdl, bw), fam.build, w), 1)
			for _, workers := range []int{1, 4, 8} {
				got := evalAll(t, space, supplied(EvalModel, mdl, bw, fam.build, w, perf.FormB, SimConfig{}), workers)
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("j=%d: point %d (%s) differs: compiled %+v tree %+v",
							workers, i, space.Describe(space.Enumerate()[i]), got[i], want[i])
					}
				}
			}
		})
	}
}

// TestCompiledTreeDeviceDifferential extends the differential across a
// device shelf: per-device compiled models must price identically to
// the oracle on every shelf entry. One shared ModelCache keeps the
// shelf calibrated once across both evaluators.
func TestCompiledTreeDeviceDifferential(t *testing.T) {
	shelf := []*device.Target{device.GSD8Edu(), device.StratixVGSD8()}
	space, err := NewSpace(
		LanesAxis([]int{1, 2, 4}),
		DVAxis([]int{1, 2, 4}),
		DeviceAxis(shelf...),
	)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewModelCache()
	w := perf.Workload{NKI: 10}
	for _, fam := range diffFamilies {
		t.Run(fam.name, func(t *testing.T) {
			want := evalAll(t, space, oracleEval(t, shelf, cache, fam.build, w), 1)
			for _, workers := range []int{1, 4, 8} {
				ev, err := NewDeviceModeEvaluatorCache(EvalModel, shelf, fam.build, w, perf.FormB,
					SimConfig{}, cache)
				if err != nil {
					t.Fatal(err)
				}
				got := evalAll(t, space, ev, workers)
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("j=%d: point %d (%s) differs from the oracle",
							workers, i, space.Describe(space.Enumerate()[i]))
					}
				}
			}
		})
	}
}

// benchSpaceLarge is a ~10k-point space shaped like a large-space DSE:
// few lane counts (each a distinct module build), a deep dv axis, and
// a wide fclk axis that multiplies variants without multiplying
// estimates.
func benchSpaceLarge(b *testing.B) *Space {
	b.Helper()
	dvs := make([]int, 25)
	for i := range dvs {
		dvs[i] = i + 1
	}
	fclk := make([]int, 100)
	for i := range fclk {
		fclk[i] = 100 + i
	}
	space, err := NewSpace(
		LanesAxis([]int{1, 2, 4, 8}),
		DVAxis(dvs),
		FclkAxis(fclk),
	)
	if err != nil {
		b.Fatal(err)
	}
	return space
}

// BenchmarkEvalAllLargeSpace prices a full 10k-point exhaustive sweep
// through the engine — dense cell table, chunked work claims, compiled
// estimates — per worker count. Each iteration runs a fresh engine
// (the memo must be cold) over a shared evaluator, so the figure is
// the per-sweep engine cost, not the one-time calibration.
func BenchmarkEvalAllLargeSpace(b *testing.B) {
	tgt := device.GSD8Edu()
	mdl, err := costmodel.Calibrate(tgt)
	if err != nil {
		b.Fatal(err)
	}
	bw, err := membw.Build(tgt)
	if err != nil {
		b.Fatal(err)
	}
	space := benchSpaceLarge(b)
	vs := space.Enumerate()
	ev := NewEvaluator(mdl, bw, sorBuilder, perf.Workload{NKI: 10}, perf.FormB)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("j%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := NewEngine(space, ev, workers)
				if _, err := e.EvalAll(vs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(vs)), "ns/variant")
		})
	}
}
