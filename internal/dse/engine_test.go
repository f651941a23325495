package dse

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/tir"
)

// kernelFamilies are the four in-tree variant families the engine
// must reproduce the legacy results on.
func kernelFamilies() map[string]func(lanes int) kernels.Spec {
	return map[string]func(lanes int) kernels.Spec{
		"sor":     func(l int) kernels.Spec { return kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: l} },
		"hotspot": func(l int) kernels.Spec { return kernels.HotspotSpec{Rows: 24, Cols: 31, Lanes: l} },
		"lavamd":  func(l int) kernels.Spec { return kernels.LavaMDSpec{Pairs: 720, Lanes: l} },
		"srad":    func(l int) kernels.Spec { return kernels.SRADSpec{Rows: 24, Cols: 19, Lanes: l} },
	}
}

// samePoint compares every field the legacy implementation populated.
func samePoint(t *testing.T, ctx string, got, want Point, bandwidthUtils bool) {
	t.Helper()
	if got.Lanes != want.Lanes || got.Fits != want.Fits {
		t.Errorf("%s: lanes/fits (%d,%v) != (%d,%v)", ctx, got.Lanes, got.Fits, want.Lanes, want.Fits)
	}
	if got.EKIT != want.EKIT {
		t.Errorf("%s: EKIT %g != %g", ctx, got.EKIT, want.EKIT)
	}
	if got.Limiter != want.Limiter {
		t.Errorf("%s: limiter %v != %v", ctx, got.Limiter, want.Limiter)
	}
	if got.Par != want.Par {
		t.Errorf("%s: params %+v != %+v", ctx, got.Par, want.Par)
	}
	if got.Est.Used != want.Est.Used || got.Est.DV != want.Est.DV {
		t.Errorf("%s: estimate (%+v dv=%d) != (%+v dv=%d)",
			ctx, got.Est.Used, got.Est.DV, want.Est.Used, want.Est.DV)
	}
	if got.UtilALUT != want.UtilALUT || got.UtilReg != want.UtilReg ||
		got.UtilBRAM != want.UtilBRAM || got.UtilDSP != want.UtilDSP {
		t.Errorf("%s: resource utilisation differs", ctx)
	}
	if bandwidthUtils && (got.UtilGMemBW != want.UtilGMemBW || got.UtilHostBW != want.UtilHostBW) {
		t.Errorf("%s: bandwidth utilisation (%g,%g) != (%g,%g)",
			ctx, got.UtilGMemBW, got.UtilHostBW, want.UtilGMemBW, want.UtilHostBW)
	}
}

// exhaustive evaluates every point of the axes through the standard
// evaluator: the engine path behind the legacy sweep shape, which
// callers take with Result.Sweep.
func exhaustive(mdl *costmodel.Model, bw *membw.Model, build VariantBuilder,
	w perf.Workload, form perf.Form, axes ...Axis) (*Result, error) {
	space, err := NewSpace(axes...)
	if err != nil {
		return nil, err
	}
	return NewEngine(space, NewEvaluator(mdl, bw, build, w, form), 0).Search(Exhaustive{}, SearchOptions{})
}

// TestSweepLanesMatchesLegacy pins the engine's lane sweep to the
// frozen serial implementation on all four kernels and both
// interesting forms.
func TestSweepLanesMatchesLegacy(t *testing.T) {
	mdl, bw := fixtures(t)
	for name, family := range kernelFamilies() {
		build := func(l int) (*tir.Module, error) { return family(l).Module() }
		lanes := DivisorLaneCounts(family(1).GlobalSize(), 6)
		for _, form := range []perf.Form{perf.FormA, perf.FormB} {
			res, err := exhaustive(mdl, bw, build, perf.Workload{NKI: 10}, form, LanesAxis(lanes))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, form, err)
			}
			got, err := res.Sweep(form)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, form, err)
			}
			want, err := legacySweepLanes(mdl, bw, build, lanes, perf.Workload{NKI: 10}, form)
			if err != nil {
				t.Fatalf("%s/%s legacy: %v", name, form, err)
			}
			if got.Form != want.Form || len(got.Points) != len(want.Points) {
				t.Fatalf("%s/%s: shape mismatch", name, form)
			}
			if got.ComputeWall != want.ComputeWall || got.HostWall != want.HostWall ||
				got.DRAMWall != want.DRAMWall {
				t.Errorf("%s/%s: walls (%d,%d,%d) != (%d,%d,%d)", name, form,
					got.ComputeWall, got.HostWall, got.DRAMWall,
					want.ComputeWall, want.HostWall, want.DRAMWall)
			}
			for i := range want.Points {
				samePoint(t, name, got.Points[i], want.Points[i], true)
			}
			switch {
			case (got.Best == nil) != (want.Best == nil):
				t.Errorf("%s/%s: best presence differs", name, form)
			case got.Best != nil && got.Best.Lanes != want.Best.Lanes:
				t.Errorf("%s/%s: best %d != %d lanes", name, form, got.Best.Lanes, want.Best.Lanes)
			}
		}
	}
}

// TestFormCRequiresOnChipWorkingSet: form C stages the NDRange's
// working set in on-chip BRAM (§III-5), so the DSE must price it the
// way core.Cost gates it. Under form C the BRAM bar carries the working
// set beside the design's own BRAM, and a variant fits only when
// Estimate.FormCFeasible holds; other forms keep the plain estimate.
// The Fig 15 SOR working set (~1.04 Gbit) fits on no device, while a
// 2,400-point SOR fits on the full Stratix V.
func TestFormCRequiresOnChipWorkingSet(t *testing.T) {
	shelf := []*device.Target{device.GSD8Edu(), device.StratixVGSD8()}
	small := func(l int) (*tir.Module, error) {
		return kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: l}.Module()
	}
	space, err := NewSpace(LanesAxis([]int{1, 2, 4}), FormAxis(perf.FormB, perf.FormC), DeviceAxis(shelf...))
	if err != nil {
		t.Fatal(err)
	}
	cache := NewModelCache()
	for name, build := range map[string]VariantBuilder{"fig15": sorBuilder, "small": small} {
		ev, err := NewDeviceModeEvaluatorCache(EvalModel, shelf, build, perf.Workload{NKI: 10}, perf.FormB,
			SimConfig{}, cache)
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewEngine(space, ev, 0).Run(Exhaustive{})
		if err != nil {
			t.Fatal(err)
		}
		feasible := 0
		for i, v := range res.Variants {
			p, est := res.Points[i], res.Points[i].Est
			ctx := name + " " + space.Describe(v)
			_, _, bram, _ := est.Utilisation()
			if form, _ := space.Value(v, AxisForm); perf.Form(form) != perf.FormC {
				if p.Fits != est.Fits() || p.UtilBRAM != bram {
					t.Errorf("%s: fits=%v %%BRAM=%g, want the estimate's %v %g", ctx, p.Fits, p.UtilBRAM, est.Fits(), bram)
				}
				continue
			}
			staged := float64(est.Used.BRAM+int(est.WorkingSetBits())) / float64(est.Target.Capacity.BRAM)
			if p.UtilBRAM != staged {
				t.Errorf("%s: %%BRAM=%g, want %g with the staged working set", ctx, p.UtilBRAM, staged)
			}
			if want := est.Fits() && est.FormCFeasible(); p.Fits != want {
				t.Errorf("%s: fits=%v, want %v (working set %d bits, BRAM %d of %d)", ctx, p.Fits, want,
					est.WorkingSetBits(), est.Used.BRAM, est.Target.Capacity.BRAM)
			}
			if est.FormCFeasible() {
				feasible++
			}
		}
		if name == "fig15" && feasible != 0 {
			t.Errorf("fig15: %d form-C points feasible, want none", feasible)
		}
		if name == "small" && feasible == 0 {
			t.Error("small: no form-C point feasible on any device")
		}
	}
}

func sorEngine(t *testing.T, workers int, axes ...Axis) *Engine {
	t.Helper()
	mdl, bw := fixtures(t)
	space, err := NewSpace(axes...)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(space, NewEvaluator(mdl, bw, sorBuilder, perf.Workload{NKI: 10}, perf.FormB), workers)
}

// TestEngineParallelDeterminism: a parallel run returns exactly the
// serial result over a 3-axis space.
func TestEngineParallelDeterminism(t *testing.T) {
	axes := []Axis{
		LanesAxis([]int{1, 2, 4, 8}),
		DVAxis([]int{1, 2}),
		FormAxis(perf.FormA, perf.FormB),
	}
	serial, err := sorEngine(t, 1, axes...).Run(Exhaustive{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sorEngine(t, 8, axes...).Run(Exhaustive{})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Points) != 16 || len(parallel.Points) != len(serial.Points) {
		t.Fatalf("evaluated %d/%d points, want 16", len(serial.Points), len(parallel.Points))
	}
	for i := range serial.Points {
		if !reflect.DeepEqual(serial.Variants[i], parallel.Variants[i]) {
			t.Fatalf("variant order diverged at %d", i)
		}
		samePoint(t, "parallel", *parallel.Points[i], *serial.Points[i], true)
	}
	if serial.Walls != parallel.Walls {
		t.Errorf("walls diverged: %+v vs %+v", serial.Walls, parallel.Walls)
	}
	if !reflect.DeepEqual(serial.BestVariant, parallel.BestVariant) {
		t.Errorf("best diverged: %v vs %v", serial.BestVariant, parallel.BestVariant)
	}
}

// TestEngineConcurrentCallers exercises the memo cache under real
// contention (run with -race): many goroutines exploring the same
// engine must agree and each point must be evaluated exactly once.
func TestEngineConcurrentCallers(t *testing.T) {
	eng := sorEngine(t, 4, LanesAxis([]int{1, 2, 3, 4, 6, 8}), DVAxis([]int{1, 2}))
	var wg sync.WaitGroup
	results := make([]*Result, 8)
	errs := make([]error, 8)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = eng.Run(Exhaustive{})
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := 1; g < len(results); g++ {
		for i := range results[0].Points {
			// Memoisation means all callers share the same *Point.
			if results[g].Points[i] != results[0].Points[i] {
				t.Fatalf("goroutine %d saw a different point %d", g, i)
			}
		}
	}
}

// TestWallPrunedAgreesWithExhaustive: pruning only skips points past a
// wall, so best variant and discovered walls match the full sweep.
func TestWallPrunedAgreesWithExhaustive(t *testing.T) {
	for _, form := range []perf.Form{perf.FormA, perf.FormB} {
		axes := []Axis{LanesAxis(LaneCounts(16)), FormAxis(form)}
		full, err := sorEngine(t, 4, axes...).Run(Exhaustive{})
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := sorEngine(t, 4, axes...).Run(WallPruned{})
		if err != nil {
			t.Fatal(err)
		}
		if len(pruned.Points) > len(full.Points) {
			t.Fatalf("%s: pruned evaluated more points than exhaustive", form)
		}
		if form == perf.FormA && len(pruned.Points) >= len(full.Points) {
			t.Errorf("form A: pruning did not skip anything (%d points)", len(pruned.Points))
		}
		if pruned.Best == nil || full.Best == nil {
			t.Fatalf("%s: missing best", form)
		}
		if pruned.Best.EKIT != full.Best.EKIT {
			t.Errorf("%s: pruned best EKIT %g != exhaustive %g", form, pruned.Best.EKIT, full.Best.EKIT)
		}
		// Pruning stops the axis early, so walls past the cut go
		// undiscovered — but every wall it does report must agree.
		if pruned.Walls.Compute != full.Walls.Compute {
			t.Errorf("%s: pruned compute wall %d != %d", form, pruned.Walls.Compute, full.Walls.Compute)
		}
		if pruned.Walls.Host != 0 && pruned.Walls.Host != full.Walls.Host {
			t.Errorf("%s: pruned host wall %d != %d", form, pruned.Walls.Host, full.Walls.Host)
		}
		if pruned.Walls.DRAM != 0 && pruned.Walls.DRAM != full.Walls.DRAM {
			t.Errorf("%s: pruned DRAM wall %d != %d", form, pruned.Walls.DRAM, full.Walls.DRAM)
		}
	}
}

// TestWallPrunedIgnoresErrorsPastTheCut: a variant that fails to
// build beyond the computation wall is a point a serial pruned sweep
// would never evaluate, so it must not fail the exploration at any
// worker count — even when a parallel wave computes it alongside the
// cut point.
func TestWallPrunedIgnoresErrorsPastTheCut(t *testing.T) {
	mdl, bw := fixtures(t)
	build := func(lanes int) (*tir.Module, error) {
		if lanes > 7 { // the SOR compute wall on GSD8Edu is at 7 lanes
			return nil, fmt.Errorf("no variant beyond %d lanes", lanes)
		}
		return sorBuilder(lanes)
	}
	space, err := NewSpace(LanesAxis(LaneCounts(16)))
	if err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator(mdl, bw, build, perf.Workload{NKI: 10}, perf.FormB)
	if _, err := NewEngine(space, eval, 8).Run(Exhaustive{}); err == nil {
		t.Fatal("exhaustive should surface the builder error")
	}
	var bests []int
	for _, j := range []int{1, 8} {
		r, err := NewEngine(space, eval, j).Run(WallPruned{})
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		if r.Best == nil {
			t.Fatalf("j=%d: no best", j)
		}
		bests = append(bests, r.Best.Lanes)
	}
	if bests[0] != bests[1] {
		t.Errorf("best diverged across worker counts: %v", bests)
	}
}

// TestParetoFrontier: the frontier is non-empty, fits, contains the
// best point, and is mutually non-dominated.
func TestParetoFrontier(t *testing.T) {
	eng := sorEngine(t, 4, LanesAxis(LaneCounts(8)), DVAxis([]int{1, 2}))
	r, err := eng.Run(ParetoFrontier{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	hasBest := false
	for _, i := range r.Frontier {
		p := r.Points[i]
		if !p.Fits {
			t.Errorf("frontier point %d does not fit", i)
		}
		if p == r.Best {
			hasBest = true
		}
		for _, j := range r.Frontier {
			q := r.Points[j]
			if i != j && q.EKIT > p.EKIT && q.PeakUtil() < p.PeakUtil() {
				t.Errorf("frontier point %d dominated by %d", i, j)
			}
		}
	}
	if !hasBest {
		t.Error("frontier does not contain the best point")
	}
}

func TestSpaceBasics(t *testing.T) {
	s, err := NewSpace(LanesAxis([]int{1, 2}), DVAxis([]int{1, 2, 4}))
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 6 {
		t.Errorf("size %d, want 6", s.Size())
	}
	vs := s.Enumerate()
	if len(vs) != 6 {
		t.Fatalf("enumerated %d", len(vs))
	}
	// Row-major: first axis slowest.
	if k := s.Key(vs[0]); k != "lanes=1,dv=1" {
		t.Errorf("first key %q", k)
	}
	if k := s.Key(vs[5]); k != "lanes=2,dv=4" {
		t.Errorf("last key %q", k)
	}
	if v, ok := s.Value(vs[4], AxisDV); !ok || v != 2 {
		t.Errorf("Value dv = %d,%v", v, ok)
	}
	if got := s.ValueDefault(vs[0], AxisForm, 7); got != 7 {
		t.Errorf("ValueDefault = %d", got)
	}

	for _, bad := range [][]Axis{
		{},
		{{Name: "", Values: []int{1}}},
		{{Name: "a", Values: nil}},
		{LanesAxis([]int{1}), LanesAxis([]int{2})},
	} {
		if _, err := NewSpace(bad...); err == nil {
			t.Errorf("NewSpace(%v): no error", bad)
		}
	}
}

// TestNewSpaceSizeOverflow: axes whose product overflows int are
// rejected with an error naming them, instead of wrapping Size and the
// strides the engine's tables are sized from.
func TestNewSpaceSizeOverflow(t *testing.T) {
	vals := make([]int, 1<<16)
	for i := range vals {
		vals[i] = i + 1
	}
	axes := []Axis{LanesAxis(vals), DVAxis(vals), FclkAxis(vals), {Name: "unroll", Values: vals}}
	if _, err := NewSpace(axes...); err == nil {
		t.Fatal("2^64-point space accepted")
	} else if !strings.Contains(err.Error(), "lanes[65536] x dv[65536] x fclk[65536] x unroll[65536]") {
		t.Errorf("overflow error does not name the axes: %v", err)
	}
	// One axis fewer fits: 2^48 points.
	s, err := NewSpace(axes[:3]...)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 1<<48 {
		t.Errorf("size %d, want 2^48", s.Size())
	}
}

// TestInvalidVariantsRejected: the public entry points that take
// variants validate them. EvalAll errors before evaluating anything,
// and Search.Lookup reports false, including for out-of-range indices
// whose Index would alias another point's memo cell and flag bit.
func TestInvalidVariantsRejected(t *testing.T) {
	space, err := NewSpace(LanesAxis([]int{1, 2}), DVAxis([]int{1, 2, 4}))
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	eval := func(s *Space, v Variant) (*Point, error) {
		calls.Add(1)
		return &Point{Lanes: s.ValueDefault(v, AxisLanes, 1), Fits: true}, nil
	}
	e := NewEngine(space, eval, 2)
	sc := &Search{space: space, cells: e.table()}
	vs, _ := sc.charge(space.Enumerate())
	e.runWave(nil, vs)
	calls.Store(0)

	for _, c := range []struct {
		name string
		v    Variant
	}{
		{"short", Variant{0}},
		{"empty", Variant{}},
		{"long", Variant{0, 0, 0}},
		{"negative", Variant{-1, 0}},
		{"negative aliasing (0,2)", Variant{1, -1}},
		{"too large aliasing (1,0)", Variant{0, 3}},
		{"too large past the space", Variant{2, 0}},
	} {
		// A fresh engine: nothing memoised, so a call that evaluated the
		// valid first variant would show in calls.
		if _, err := NewEngine(space, eval, 2).EvalAll([]Variant{{0, 0}, c.v}); err == nil {
			t.Errorf("%s %v: EvalAll accepted it", c.name, c.v)
		}
		if o, ok := sc.Lookup(c.v); ok {
			t.Errorf("%s %v: Lookup found %+v", c.name, c.v, o)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("rejected calls evaluated %d variants", n)
	}
	if o, ok := sc.Lookup(Variant{1, 2}); !ok || o.Point == nil || o.Point.Lanes != 2 {
		t.Errorf("Lookup of an evaluated variant = %+v, %v", o, ok)
	}
}

func TestStandardEvaluatorRejectsUnknownAxis(t *testing.T) {
	mdl, bw := fixtures(t)
	space, err := NewSpace(LanesAxis([]int{1}), Axis{Name: AxisDevice, Values: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(space, NewEvaluator(mdl, bw, sorBuilder, perf.Workload{NKI: 10}, perf.FormB), 2)
	if _, err := eng.Run(Exhaustive{}); err == nil || !strings.Contains(err.Error(), "device") {
		t.Errorf("unsupported axis accepted: %v", err)
	}
}

func TestParseStrategy(t *testing.T) {
	for _, name := range StrategyNames() {
		st, err := ParseStrategy(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if st.Name() != name {
			t.Errorf("ParseStrategy(%q).Name() = %q", name, st.Name())
		}
	}
	if _, err := ParseStrategy("clairvoyant"); err == nil {
		t.Error("unknown strategy accepted")
	}
	// Aliases resolve to their canonical strategy, and the
	// adaptive classification agrees with the parser on them.
	if st, err := ParseStrategy("simulated-annealing"); err != nil || st.Name() != "anneal" {
		t.Errorf("ParseStrategy(simulated-annealing) = %v, %v", st, err)
	}
	if !StrategyIsAdaptive("sa") || StrategyIsAdaptive("pruned") || StrategyIsAdaptive("nope") {
		t.Error("StrategyIsAdaptive disagrees with ParseStrategy on aliases")
	}
}

// TestStrategyNamesDistinct: every entry of the strategy table is
// complete, and every canonical name and alias resolves to exactly one
// entry.
func TestStrategyNamesDistinct(t *testing.T) {
	owner := map[string]string{}
	for _, sp := range strategies {
		if sp.Name == "" || sp.New == nil {
			t.Errorf("strategy %q: entry needs a name and a factory", sp.Name)
		}
		for _, name := range append([]string{sp.Name}, sp.Aliases...) {
			if prev, ok := owner[name]; ok {
				t.Errorf("%q names both %s and %s", name, prev, sp.Name)
			}
			owner[name] = sp.Name
		}
	}
}

func TestResultSliceAndSweep(t *testing.T) {
	eng := sorEngine(t, 4, LanesAxis(LaneCounts(8)), FormAxis(perf.FormA, perf.FormB))
	r, err := eng.Run(Exhaustive{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Sweep(perf.FormA); err == nil {
		t.Error("multi-valued form axis accepted by Sweep")
	}
	a, err := r.Slice(AxisForm, int(perf.FormA))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := a.Sweep(perf.FormA)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 8 {
		t.Fatalf("sliced sweep has %d points", len(sw.Points))
	}
	mdl, bw := fixtures(t)
	want, err := legacySweepLanes(mdl, bw, sorBuilder, LaneCounts(8), perf.Workload{NKI: 10}, perf.FormA)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Points {
		samePoint(t, "slice", sw.Points[i], want.Points[i], true)
	}
	if sw.HostWall != want.HostWall || sw.ComputeWall != want.ComputeWall {
		t.Errorf("sliced walls (%d,%d) != (%d,%d)",
			sw.HostWall, sw.ComputeWall, want.HostWall, want.ComputeWall)
	}
	if _, err := r.Slice("device", 0); err == nil {
		t.Error("missing axis accepted by Slice")
	}
}

// TestWallPrunedZeroValueEngine: a zero-value Engine (Workers == 0,
// built without NewEngine) must terminate, not spin on empty waves.
func TestWallPrunedZeroValueEngine(t *testing.T) {
	mdl, bw := fixtures(t)
	space, err := NewSpace(LanesAxis([]int{1, 2, 4}))
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Space: space,
		Eval: NewEvaluator(mdl, bw, sorBuilder, perf.Workload{NKI: 10}, perf.FormB)}
	r, err := eng.Run(WallPruned{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 || r.Best == nil {
		t.Error("zero-value engine produced no result")
	}
}
