package dse

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/evalstore"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/tir"
)

// scratchPoint prices the point of variant v from scratch: perf.Extract
// on the evaluated point's estimate, the fclk override of FD, EKIT and
// the Fig 15 bars — none of it read from a memo cell. The simulation
// fields are carried over from got and re-priced at the point's FD.
func scratchPoint(t *testing.T, s *Space, v Variant, got *Point, bw *membw.Model,
	w perf.Workload, device string) *Point {
	t.Helper()
	lanes := s.ValueDefault(v, AxisLanes, 1)
	form := perf.Form(s.ValueDefault(v, AxisForm, int(perf.FormB)))
	par, err := perf.Extract(got.Est, bw, w)
	if err != nil {
		t.Fatalf("%s: extracting from scratch: %v", s.Describe(v), err)
	}
	if mhz, ok := s.Value(v, AxisFclk); ok {
		par.FD = FclkHz(mhz)
	}
	ekit, bd, err := par.EKIT(form)
	if err != nil {
		t.Fatalf("%s: EKIT from scratch: %v", s.Describe(v), err)
	}
	p := &Point{Lanes: lanes, Est: got.Est, Par: par, Device: device, EKIT: ekit, ModelEKIT: ekit,
		Breakdown: bd, Fits: got.Est.Fits()}
	p.UtilALUT, p.UtilReg, p.UtilBRAM, p.UtilDSP = got.Est.Utilisation()
	demand := par.FD * float64(par.KNL) * float64(par.DV) *
		float64(par.NWPT) * float64(par.WordBytes) / par.CyclesPerItem()
	p.UtilGMemBW = demand / (par.GPB * par.RhoG)
	hostDemand := demand
	if form != perf.FormA {
		hostDemand /= float64(par.NKI)
	}
	p.UtilHostBW = hostDemand / (par.HPB * par.RhoH)
	if got.SimCycles != 0 {
		p.SimCycles, p.SimItems = got.SimCycles, got.SimItems
		p.SimEKIT = par.FD / float64(got.SimCycles)
	}
	return p
}

// TestDifferentialWarmPointParams pins the warm point path, which
// prices every point from the Table I parameters memoised per
// (lanes, dv): each point must deeply equal the point scratchPoint
// builds with its own perf.Extract. It covers one target and the
// three-device shelf, model and hybrid mode, -j 1, 4 and 8, from the
// in-memory memo and from a warm store. A workload whose DV contradicts
// the dv=4 estimates makes Extract fail there: every point of such a
// (lanes, dv) must report the same error, carrying Extract's message.
func TestDifferentialWarmPointParams(t *testing.T) {
	shelf := testShelf(t)
	cache := NewModelCache()
	bwOf := map[string]*membw.Model{}
	for _, tgt := range shelf {
		_, bw, err := cache.Models(tgt)
		if err != nil {
			t.Fatal(err)
		}
		bwOf[tgt.Name] = bw
	}
	family := kernelFamilies()["sor"]
	build := func(l int) (*tir.Module, error) { return family(l).Module() }

	// newEval builds the evaluator under test, over the whole shelf or
	// its first entry alone; a nil store is the in-memory path over the
	// shared, pre-calibrated cache.
	newEval := func(mode EvalMode, onShelf bool, w perf.Workload, st *evalstore.Store) Evaluator {
		t.Helper()
		targets := shelf[:1]
		if onShelf {
			targets = shelf
		}
		var ev Evaluator
		var err error
		if st == nil {
			ev, err = NewDeviceModeEvaluatorCache(mode, targets, build, w, perf.FormB, SimConfig{}, cache)
		} else {
			ev, err = NewDeviceModeEvaluatorStore(mode, targets, build, w, perf.FormB, SimConfig{}, st)
		}
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	// deviceOf names the shelf entry that priced v ("" off the shelf).
	deviceOf := func(s *Space, v Variant) string {
		name, _ := axisLabel(s, v, AxisDevice)
		return name
	}
	bwFor := func(device string) *membw.Model {
		if device == "" {
			return bwOf[shelf[0].Name]
		}
		return bwOf[device]
	}

	// One store directory for every configuration, seeded with the
	// shelf's models so no store-backed run calibrates again.
	dir := t.TempDir()
	seed, err := evalstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range shelf {
		mdl, bw, err := cache.Models(tgt)
		if err != nil {
			t.Fatal(err)
		}
		if err := evalstore.SaveModels(seed, tgt, mdl, bw); err != nil {
			t.Fatal(err)
		}
	}
	for _, mode := range []EvalMode{EvalModel, EvalHybrid} {
		for _, onShelf := range []bool{false, true} {
			axes := []Axis{LanesAxis([]int{1, 2, 4})}
			if mode == EvalModel {
				axes = append(axes, DVAxis([]int{1, 2, 3}))
			}
			axes = append(axes, FormAxis(perf.FormA, perf.FormB), FclkAxis([]int{120, 250}))
			if onShelf {
				axes = append(axes, DeviceAxis(shelf...))
			}
			space, err := NewSpace(axes...)
			if err != nil {
				t.Fatal(err)
			}
			vs := space.Enumerate()
			w := perf.Workload{NKI: 10}
			check := func(ctx string, ev Evaluator, workers int) {
				t.Helper()
				ps, errs := evalKeep(NewEngine(space, ev, workers), vs)
				for i, v := range vs {
					if errs[i] != nil {
						t.Fatalf("%s: %s: %v", ctx, space.Describe(v), errs[i])
					}
					dev := deviceOf(space, v)
					if want := scratchPoint(t, space, v, ps[i], bwFor(dev), w, dev); !reflect.DeepEqual(ps[i], want) {
						t.Fatalf("%s: %s differs from scratch:\n got %+v\nwant %+v", ctx, space.Describe(v), ps[i], want)
					}
				}
			}

			name := fmt.Sprintf("%s/shelf=%v", mode, onShelf)
			for _, workers := range []int{1, 4, 8} {
				check(fmt.Sprintf("%s/memory/j%d", name, workers), newEval(mode, onShelf, w, nil), workers)
			}
			cold, err := evalstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			check(name+"/store-cold", newEval(mode, onShelf, w, cold), 1)
			for _, workers := range []int{1, 4, 8} {
				warm, err := evalstore.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s/store-warm/j%d", name, workers), newEval(mode, onShelf, w, warm), workers)
			}
		}
	}

	// Extract failures are memoised with their cell: a workload DV of 2
	// contradicts every dv=4 estimate.
	badW := perf.Workload{NKI: 10, DV: 2}
	for _, onShelf := range []bool{false, true} {
		axes := []Axis{LanesAxis([]int{1, 2, 4}), DVAxis([]int{1, 4}),
			FormAxis(perf.FormA, perf.FormB), FclkAxis([]int{120, 250})}
		if onShelf {
			axes = append(axes, DeviceAxis(shelf...))
		}
		space, err := NewSpace(axes...)
		if err != nil {
			t.Fatal(err)
		}
		vs := space.Enumerate()
		wantErr := map[string]string{}
		for _, workers := range []int{1, 4, 8} {
			ctx := fmt.Sprintf("extract-failure/shelf=%v/j%d", onShelf, workers)
			ps, errs := evalKeep(NewEngine(space, newEval(EvalModel, onShelf, badW, nil), workers), vs)
			for i, v := range vs {
				dv, _ := space.Value(v, AxisDV)
				if dv == 1 {
					if errs[i] != nil {
						t.Fatalf("%s: %s: %v", ctx, space.Describe(v), errs[i])
					}
					dev := deviceOf(space, v)
					if want := scratchPoint(t, space, v, ps[i], bwFor(dev), badW, dev); !reflect.DeepEqual(ps[i], want) {
						t.Fatalf("%s: %s differs from scratch", ctx, space.Describe(v))
					}
					continue
				}
				lanes, _ := space.Value(v, AxisLanes)
				dev := deviceOf(space, v)
				key := fmt.Sprintf("%s/%d/%d", dev, lanes, dv)
				want, ok := wantErr[key]
				if !ok {
					want = scratchExtractErr(t, shelfTarget(shelf, dev), cache, build, lanes, dv, badW)
					if dev != "" {
						want = fmt.Sprintf("dse: on %s: %s", dev, want)
					}
					wantErr[key] = want
				}
				if errs[i] == nil || errs[i].Error() != want {
					t.Fatalf("%s: %s: error %v, want %q", ctx, space.Describe(v), errs[i], want)
				}
			}
		}
	}
}

// evalKeep evaluates vs as one wave at the engine's worker count and
// returns every point beside its error, failures included.
func evalKeep(e *Engine, vs []Variant) ([]*Point, []error) {
	h := e.startHelpers(e.Workers - 1)
	defer h.stop()
	outs := e.runWave(h, vs)
	ps, errs := make([]*Point, len(outs)), make([]error, len(outs))
	for i, o := range outs {
		ps[i], errs[i] = o.Point, o.Err
	}
	return ps, errs
}

// shelfTarget returns the named shelf entry, or the first one for "".
func shelfTarget(shelf []*device.Target, name string) *device.Target {
	for _, tgt := range shelf {
		if tgt.Name == name {
			return tgt
		}
	}
	return shelf[0]
}

// scratchExtractErr returns the error the evaluators must report when
// perf.Extract fails on the (lanes, dv) estimate of the target, built
// from scratch with a fresh compiled estimate program.
func scratchExtractErr(t *testing.T, tgt *device.Target, cache *ModelCache, build VariantBuilder,
	lanes, dv int, w perf.Workload) string {
	t.Helper()
	mdl, bw, err := cache.Models(tgt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := build(lanes)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := mdl.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	est, err := cm.EstimateVectorised(dv)
	if err != nil {
		t.Fatal(err)
	}
	_, err = perf.Extract(est, bw, w)
	if err == nil {
		t.Fatalf("%s lanes=%d dv=%d: Extract accepted workload DV %d", tgt.Name, lanes, dv, w.DV)
	}
	return fmt.Sprintf("dse: extracting %d-lane parameters: %v", lanes, err)
}

// warmAllocSpace is the allocation gate's space: 4,096 points over
// lanes × dv × form × fclk, 512 points per (lanes, dv) estimate.
func warmAllocSpace(t *testing.T) *Space {
	t.Helper()
	fclk := make([]int, 64)
	for i := range fclk {
		fclk[i] = 100 + 5*i
	}
	s, err := NewSpace(
		LanesAxis([]int{1, 2, 3, 4}),
		DVAxis(LaneCounts(8)),
		FormAxis(perf.FormA, perf.FormB),
		FclkAxis(fclk),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWarmModelPointAllocs gates the warm model-mode point: once the
// (lanes, dv) memo cells are settled, a standard-evaluator call
// allocates only its Point, and an exhaustive search on a fresh engine
// allocates the Point of each point plus amortised slices (Enumerate
// backs every Variant with one array).
func TestWarmModelPointAllocs(t *testing.T) {
	mdl, bw := fixtures(t)
	space := warmAllocSpace(t)
	ev := NewEvaluator(mdl, bw, sorBuilder, perf.Workload{NKI: 10}, perf.FormB)
	if _, err := NewEngine(space, ev, 1).Run(Exhaustive{}); err != nil {
		t.Fatal(err)
	}

	vs := space.Enumerate()
	i := 0
	perCall := testing.AllocsPerRun(1000, func() {
		i = (i + 389) % len(vs)
		if _, err := ev(space, vs[i]); err != nil {
			t.Fatal(err)
		}
	})
	if perCall > 1 {
		t.Errorf("warm evaluator call allocates %.2f objects, want <= 1", perCall)
	}

	perSearch := testing.AllocsPerRun(3, func() {
		if _, err := NewEngine(space, ev, 1).Run(Exhaustive{}); err != nil {
			t.Fatal(err)
		}
	})
	if perPoint := perSearch / float64(space.Size()); perPoint > 1.1 {
		t.Errorf("warm exhaustive search allocates %.3f objects/point, want <= 1.1", perPoint)
	} else {
		t.Logf("warm evaluator call: %.2f allocs; warm exhaustive search: %.3f allocs/point", perCall, perPoint)
	}
}
