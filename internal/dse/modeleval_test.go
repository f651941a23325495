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

// TestCompiledTreeEngineDifferential pins the compiled estimate
// program bit-identical to the tree-walk oracle through the whole
// engine assembly: the same space evaluated under ModelEvalCompiled
// and ModelEvalTree must produce deeply equal points — estimates,
// utilisations, EKIT, everything — at every worker count.
func TestCompiledTreeEngineDifferential(t *testing.T) {
	mdl, bw := fixtures(t)
	space := modelDiffSpace(t)
	w := perf.Workload{NKI: 10}

	run := func(emode ModelEvalMode, workers int) []*Point {
		ev := supplied(EvalModel, mdl, bw, sorBuilder, w, perf.FormB, SimConfig{ModelEval: emode})
		ps, err := NewEngine(space, ev, workers).EvalAll(space.Enumerate())
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}

	want := run(ModelEvalTree, 1)
	for _, workers := range []int{1, 4, 8} {
		got := run(ModelEvalCompiled, workers)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("j=%d: point %d (%s) differs: compiled %+v tree %+v",
					workers, i, space.Describe(space.Enumerate()[i]), got[i], want[i])
			}
		}
	}
}

// TestCompiledTreeDeviceDifferential extends the differential across a
// device shelf: per-device compiled models must price identically to
// the oracle on every shelf entry. One shared ModelCache keeps the
// shelf calibrated once across both modes.
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

	run := func(emode ModelEvalMode, workers int) []*Point {
		ev, err := NewDeviceModeEvaluatorCache(EvalModel, shelf, sorBuilder, w, perf.FormB,
			SimConfig{ModelEval: emode}, cache)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := NewEngine(space, ev, workers).EvalAll(space.Enumerate())
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}

	want := run(ModelEvalTree, 1)
	for _, workers := range []int{1, 4, 8} {
		got := run(ModelEvalCompiled, workers)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("j=%d: point %d (%s) differs across modes",
					workers, i, space.Describe(space.Enumerate()[i]))
			}
		}
	}
}

// TestParseModelEval pins the flag surface of -modeleval.
func TestParseModelEval(t *testing.T) {
	cases := []struct {
		in   string
		want ModelEvalMode
		err  bool
	}{
		{"", ModelEvalCompiled, false},
		{"compiled", ModelEvalCompiled, false},
		{"tree", ModelEvalTree, false},
		{"oracle", ModelEvalTree, false},
		{"fast", 0, true},
	}
	for _, c := range cases {
		got, err := ParseModelEval(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseModelEval(%q): no error", c.in)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseModelEval(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if got := ModelEvalNames(); len(got) != 2 || got[0] != "compiled" || got[1] != "tree" {
		t.Errorf("ModelEvalNames() = %v", got)
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
