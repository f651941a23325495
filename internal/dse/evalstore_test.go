package dse

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/elab"
	"repro/internal/evalstore"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/tir"
)

// counters tallies the expensive recomputations a warm-cache run must
// never perform, and the data runs no scoring path may perform.
type counters struct {
	estimates atomic.Int64 // costmodel.EstimateVectorised calls
	inputs    atomic.Int64 // SimConfig.Inputs calls: zero, cold and warm
}

// instrumentedEval builds a mode evaluator over the store with every
// compute path counted. It is the production assembly (newEvaluator
// over a one-entry shelf), not a test double, with the counting
// wrappers wired into its model half and its SimConfig before the
// first evaluation.
func instrumentedEval(t *testing.T, mode EvalMode, mdl *costmodel.Model, bw *membw.Model,
	store *evalstore.Store, c *counters) Evaluator {
	t.Helper()
	cache := seeded(mdl, bw)
	cache.store = store
	cfg := SimConfig{Inputs: func(m *tir.Module, seed int64) (map[string][]int64, error) {
		c.inputs.Add(1)
		return SimInputs(m, seed)
	}}
	de, err := newEvaluator(mode, []*device.Target{mdl.Target}, cache, sorBuilder,
		perf.Workload{NKI: 10}, perf.FormB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	me, err := de.modelEvalFor(0)
	if err != nil {
		t.Fatal(err)
	}
	me.estimateFn = func(d *elab.Design, dv int) (*costmodel.Estimate, error) {
		c.estimates.Add(1)
		return mdl.EstimateVectorised(d, dv)
	}
	return de.eval
}

func runInstrumented(t *testing.T, mode EvalMode, store *evalstore.Store,
	workers int) (*Result, *counters) {
	t.Helper()
	mdl, bw := fixtures(t)
	var c counters
	space, err := NewSpace(LanesAxis([]int{1, 2, 4}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(space, instrumentedEval(t, mode, mdl, bw, store, &c), workers).Run(Exhaustive{})
	if err != nil {
		t.Fatal(err)
	}
	return res, &c
}

// sameResult compares two exploration results point-identically,
// including the simulation fields samePoint does not cover.
func samePointsResult(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if len(got.Points) != len(want.Points) {
		t.Fatalf("%s: %d points vs %d", ctx, len(got.Points), len(want.Points))
	}
	for i := range want.Points {
		g, w := *got.Points[i], *want.Points[i]
		samePoint(t, fmt.Sprintf("%s[%d]", ctx, i), g, w, true)
		if g.SimCycles != w.SimCycles || g.SimItems != w.SimItems ||
			g.SimEKIT != w.SimEKIT || g.ModelEKIT != w.ModelEKIT {
			t.Errorf("%s[%d]: sim fields (%d,%d,%g,%g) != (%d,%d,%g,%g)", ctx, i,
				g.SimCycles, g.SimItems, g.SimEKIT, g.ModelEKIT,
				w.SimCycles, w.SimItems, w.SimEKIT, w.ModelEKIT)
		}
		if g.Device != w.Device {
			t.Errorf("%s[%d]: device %q != %q", ctx, i, g.Device, w.Device)
		}
	}
}

// TestWarmColdIdentical is the tentpole differential: a warm-cache
// exploration must produce points identical to the cold run that
// populated the cache, in every mode and at any worker count, while
// recomputing no cost-model estimate. No run, cold or warm, executes
// simulation data: sim and hybrid points are scored from the compiled
// design's structure. (Variant modules are still built on warm runs:
// the content keys are derived from their printed IR.)
func TestWarmColdIdentical(t *testing.T) {
	for _, mode := range []EvalMode{EvalModel, EvalSim, EvalHybrid} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-j%d", mode, workers), func(t *testing.T) {
				dir := t.TempDir()
				cold, err := evalstore.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				coldRes, coldC := runInstrumented(t, mode, cold, workers)
				if coldC.estimates.Load() == 0 {
					t.Fatal("cold run computed no estimates")
				}
				if n := coldC.inputs.Load(); n != 0 {
					t.Errorf("cold run generated %d simulation workloads", n)
				}

				// Reopen: a fresh store over the same directory, so every
				// warm answer comes off disk, not the write-through memory.
				warm, err := evalstore.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				warmRes, warmC := runInstrumented(t, mode, warm, workers)
				if n := warmC.estimates.Load(); n != 0 {
					t.Errorf("warm run recomputed %d estimates", n)
				}
				if n := warmC.inputs.Load(); n != 0 {
					t.Errorf("warm run generated %d simulation workloads", n)
				}
				samePointsResult(t, "warm", warmRes, coldRes)
			})
		}
	}
}

// corruptAll damages every record file in the cache directory.
func corruptAll(t *testing.T, dir string, f func([]byte) []byte) int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, f(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(names)
}

// TestCorruptCacheRecomputesIdentically: damaging every record must
// degrade the warm run to a full recompute — same counts as cold, same
// points, no errors — and the recompute must rewrite the records so the
// next run is warm again.
func TestCorruptCacheRecomputesIdentically(t *testing.T) {
	damage := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/3] },
		"bitflip":   func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
		"emptied":   func([]byte) []byte { return nil },
	}
	for name, f := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cold, err := evalstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			coldRes, coldC := runInstrumented(t, EvalHybrid, cold, 4)
			if n := corruptAll(t, dir, f); n == 0 {
				t.Fatal("cold run wrote no records")
			}

			s2, err := evalstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			res2, c2 := runInstrumented(t, EvalHybrid, s2, 4)
			if c2.estimates.Load() != coldC.estimates.Load() {
				t.Errorf("corrupt cache: %d estimates recomputed, cold run needed %d",
					c2.estimates.Load(), coldC.estimates.Load())
			}
			samePointsResult(t, "recomputed", res2, coldRes)

			// The recompute must have rewritten the records: a third run
			// is fully warm.
			s3, err := evalstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			res3, c3 := runInstrumented(t, EvalHybrid, s3, 4)
			if n := c3.estimates.Load(); n != 0 {
				t.Errorf("post-rewrite run recomputed %d estimates", n)
			}
			samePointsResult(t, "rewritten", res3, coldRes)
		})
	}
}

// TestModelCacheStoreWarmSkipsCalibration: with a store attached, a
// fresh ModelCache answers Models() from the archived record — zero
// calibrations, zero bandwidth builds — and the rebuilt models price
// identically (checked structurally here; point-identity is covered by
// TestDeviceStoreWarmCold).
func TestModelCacheStoreWarmSkipsCalibration(t *testing.T) {
	tgt, err := device.Lookup("stratix-v-gsd8-edu")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	models := func(s *evalstore.Store) (*costmodel.Model, *membw.Model, int64, int64) {
		cache := NewModelCacheStore(s)
		var cal, bld atomic.Int64
		cache.calibrate = func(tg *device.Target) (*costmodel.Model, error) {
			cal.Add(1)
			return costmodel.Calibrate(tg)
		}
		cache.buildBW = func(tg *device.Target) (*membw.Model, error) {
			bld.Add(1)
			return membw.Build(tg)
		}
		mdl, bw, err := cache.Models(tgt)
		if err != nil {
			t.Fatal(err)
		}
		return mdl, bw, cal.Load(), bld.Load()
	}

	s1, err := evalstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldMdl, coldBW, cal, bld := models(s1)
	if cal != 1 || bld != 1 {
		t.Fatalf("cold Models: %d calibrations, %d builds; want 1, 1", cal, bld)
	}

	s2, err := evalstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmMdl, warmBW, cal, bld := models(s2)
	if cal != 0 || bld != 0 {
		t.Errorf("warm Models: %d calibrations, %d builds; want 0, 0", cal, bld)
	}
	if len(warmMdl.Ops) != len(coldMdl.Ops) || len(warmBW.Table) != len(coldBW.Table) {
		t.Errorf("warm models differ structurally from cold")
	}
}

// TestDeviceStoreWarmCold extends the differential across the device
// shelf: per-device calibrations are zero on the warm run and every
// point (including its device label) is identical.
func TestDeviceStoreWarmCold(t *testing.T) {
	shelf := testShelf(t)
	dir := t.TempDir()
	run := func(s *evalstore.Store) (*Result, int64) {
		cache := NewModelCacheStore(s)
		var cal atomic.Int64
		cache.calibrate = func(tg *device.Target) (*costmodel.Model, error) {
			cal.Add(1)
			return costmodel.Calibrate(tg)
		}
		res, err := deviceEngine(t, EvalModel, shelf, 4, sorBuilder, cache).Run(Exhaustive{})
		if err != nil {
			t.Fatal(err)
		}
		return res, cal.Load()
	}

	s1, err := evalstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, cal := run(s1)
	if cal != int64(len(shelf)) {
		t.Fatalf("cold run calibrated %d devices, want %d", cal, len(shelf))
	}

	s2, err := evalstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmRes, cal := run(s2)
	if cal != 0 {
		t.Errorf("warm run calibrated %d devices, want 0", cal)
	}
	samePointsResult(t, "device-warm", warmRes, coldRes)
}

// lavamdStoreSpace is the store allocation gate's space: lavamd at
// every divisor lane count up to 16 × dv 1..16 × the three-device
// shelf, one estimate record per point.
func lavamdStoreSpace(t *testing.T, shelf []*device.Target) (*Space, VariantBuilder) {
	t.Helper()
	family := kernelFamilies()["lavamd"]
	space, err := NewSpace(LanesAxis(DivisorLaneCounts(family(1).GlobalSize(), 16)),
		DVAxis(LaneCounts(16)), DeviceAxis(shelf...))
	if err != nil {
		t.Fatal(err)
	}
	return space, func(l int) (*tir.Module, error) { return family(l).Module() }
}

// TestWarmStorePointAllocs gates the store-warm point path: against a
// populated store, with each device's models already loaded, an
// exhaustive lavamd exploration reads one estimate record per point
// and must allocate at most warmStoreBytesPerPoint bytes per point —
// the module builds, IR digests, keys, record reads and Table I
// parameters all included. CI gates on it in a step without -race,
// whose instrumentation changes allocation counts.
func TestWarmStorePointAllocs(t *testing.T) {
	const warmStoreBytesPerPoint = 9600
	shelf := testShelf(t)
	space, build := lavamdStoreSpace(t, shelf)
	dir := t.TempDir()
	explore := func() (*Result, float64) {
		st, err := evalstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewModelCacheStore(st)
		for _, tgt := range shelf {
			if _, _, err := cache.Models(tgt); err != nil {
				t.Fatal(err)
			}
		}
		ev, err := NewDeviceModeEvaluatorCache(EvalModel, shelf, build, perf.Workload{NKI: 10}, perf.FormB, SimConfig{}, cache)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := NewEngine(space, ev, 1).Run(Exhaustive{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, float64(after.TotalAlloc-before.TotalAlloc) / float64(space.Size())
	}
	coldRes, coldBytes := explore()
	warmRes, warmBytes := explore()
	samePointsResult(t, "warm", warmRes, coldRes)
	if warmBytes > warmStoreBytesPerPoint {
		t.Errorf("warm store exploration allocates %.0f B/point, want <= %d", warmBytes, warmStoreBytesPerPoint)
	} else {
		t.Logf("%d points: cold %.0f B/point, warm %.0f B/point", space.Size(), coldBytes, warmBytes)
	}
}

// TestStoreRecordNamesFollowEstimateKey: every record a store-backed
// exploration writes is named by the text route — ModelsKey per
// device, and evalstore.EstimateKey over the module's printed IR per
// estimate, the keys bench's ledger replays — and every such name has
// its file.
func TestStoreRecordNamesFollowEstimateKey(t *testing.T) {
	shelf := testShelf(t)
	space, build := lavamdStoreSpace(t, shelf)
	st, err := evalstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewDeviceModeEvaluatorStore(EvalModel, shelf, build, perf.Workload{NKI: 10}, perf.FormB, SimConfig{}, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(space, ev, 4).Run(Exhaustive{}); err != nil {
		t.Fatal(err)
	}

	want := map[string]bool{}
	for _, tgt := range shelf {
		want[evalstore.KindModels+"-"+evalstore.ModelsKey(tgt)+".json"] = true
	}
	for _, lanes := range DivisorLaneCounts(kernelFamilies()["lavamd"](1).GlobalSize(), 16) {
		m, err := build(lanes)
		if err != nil {
			t.Fatal(err)
		}
		ir := m.String()
		for _, dv := range LaneCounts(16) {
			for _, tgt := range shelf {
				want[evalstore.KindEstimate+"-"+evalstore.EstimateKey(ir, dv, tgt)+".json"] = true
			}
		}
	}
	names, err := filepath.Glob(filepath.Join(st.Dir(), "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !want[filepath.Base(name)] {
			t.Errorf("record %s is not named by ModelsKey or EstimateKey", filepath.Base(name))
		}
	}
	if len(names) != len(want) {
		t.Errorf("exploration wrote %d records, want %d", len(names), len(want))
	}
}
