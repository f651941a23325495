package dse

import (
	"runtime"
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

func testShelf(t *testing.T) []*device.Target {
	t.Helper()
	shelf, err := device.Shelf("stratix-v-gsd8-edu", "stratix-v-gsd8", "virtex-7-690t")
	if err != nil {
		t.Fatal(err)
	}
	return shelf
}

func deviceEngine(t *testing.T, mode EvalMode, shelf []*device.Target, workers int,
	build VariantBuilder, cache *ModelCache, extra ...Axis) *Engine {
	t.Helper()
	axes := append([]Axis{LanesAxis([]int{1, 2, 4, 8}), DeviceAxis(shelf...)}, extra...)
	space, err := NewSpace(axes...)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewDeviceModeEvaluatorCache(mode, shelf, build, perf.Workload{NKI: 10}, perf.FormB,
		SimConfig{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(space, eval, workers)
}

// TestDifferentialDeviceShelf pins the tentpole guarantee: every
// per-device row of a cross-device exploration is identical to the
// corresponding single-device sweep run through the standard
// evaluator with freshly calibrated models.
func TestDifferentialDeviceShelf(t *testing.T) {
	shelf := testShelf(t)
	multi, err := deviceEngine(t, EvalModel, shelf, 0, sorBuilder, nil).Run(Exhaustive{})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Points) != 4*len(shelf) {
		t.Fatalf("evaluated %d points, want %d", len(multi.Points), 4*len(shelf))
	}
	for di, tgt := range shelf {
		mdl, err := costmodel.Calibrate(tgt)
		if err != nil {
			t.Fatal(err)
		}
		bw, err := membw.Build(tgt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exhaustive(mdl, bw, sorBuilder, perf.Workload{NKI: 10}, perf.FormB,
			LanesAxis([]int{1, 2, 4, 8}))
		if err != nil {
			t.Fatal(err)
		}
		single, err := res.Sweep(perf.FormB)
		if err != nil {
			t.Fatal(err)
		}
		slice, err := multi.Slice(AxisDevice, di)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := slice.Sweep(perf.FormB)
		if err != nil {
			t.Fatal(err)
		}
		if len(sw.Points) != len(single.Points) {
			t.Fatalf("%s: %d points vs %d single-device", tgt.Name, len(sw.Points), len(single.Points))
		}
		for i := range single.Points {
			got := sw.Points[i]
			if got.Device != tgt.Name {
				t.Errorf("%s: point %d labelled %q", tgt.Name, i, got.Device)
			}
			got.Device = "" // the only field single-device evaluation leaves empty
			samePoint(t, tgt.Name, got, single.Points[i], true)
		}
		if sw.ComputeWall != single.ComputeWall || sw.HostWall != single.HostWall ||
			sw.DRAMWall != single.DRAMWall {
			t.Errorf("%s: walls (%d,%d,%d) != single-device (%d,%d,%d)", tgt.Name,
				sw.ComputeWall, sw.HostWall, sw.DRAMWall,
				single.ComputeWall, single.HostWall, single.DRAMWall)
		}
		if (sw.Best == nil) != (single.Best == nil) {
			t.Fatalf("%s: best presence differs", tgt.Name)
		}
		if sw.Best != nil && sw.Best.Lanes != single.Best.Lanes {
			t.Errorf("%s: best %d lanes != single-device %d", tgt.Name, sw.Best.Lanes, single.Best.Lanes)
		}
	}
}

// TestDeviceModelCacheCalibratesOncePerDevice asserts the per-target
// model cache memoisation: Calibrate and Build run exactly once per
// device id, regardless of points per device, worker count, or how
// many engines share the cache.
func TestDeviceModelCacheCalibratesOncePerDevice(t *testing.T) {
	shelf := testShelf(t)
	var calibrations, builds atomic.Int64
	cache := NewModelCache()
	cache.calibrate = func(tgt *device.Target) (*costmodel.Model, error) {
		calibrations.Add(1)
		return costmodel.Calibrate(tgt)
	}
	cache.buildBW = func(tgt *device.Target) (*membw.Model, error) {
		builds.Add(1)
		return membw.Build(tgt)
	}
	space, err := NewSpace(LanesAxis([]int{1, 2, 3, 4, 6, 8}), DeviceAxis(shelf...))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ { // a second engine over the same cache adds nothing
		eval, err := NewDeviceModeEvaluatorCache(EvalModel, shelf, sorBuilder,
			perf.Workload{NKI: 10}, perf.FormB, SimConfig{}, cache)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewEngine(space, eval, runtime.NumCPU()).Run(Exhaustive{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := calibrations.Load(); n != int64(len(shelf)) {
		t.Errorf("Calibrate ran %d times for %d devices", n, len(shelf))
	}
	if n := builds.Load(); n != int64(len(shelf)) {
		t.Errorf("membw.Build ran %d times for %d devices", n, len(shelf))
	}
}

// TestModelCacheRejectsRetunedTarget: a shared cache must not hand a
// tuned target the stale models of an earlier same-named calibration.
func TestModelCacheRejectsRetunedTarget(t *testing.T) {
	cache := NewModelCache()
	orig := device.GSD8Edu()
	if _, _, err := cache.Models(orig); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Models(device.GSD8Edu()); err != nil {
		t.Fatalf("identical description rejected: %v", err)
	}
	tuned := device.GSD8Edu()
	tuned.DRAM.PeakBandwidth *= 2
	if _, _, err := cache.Models(tuned); err == nil ||
		!strings.Contains(err.Error(), "different description") {
		t.Errorf("retuned target got cached models: %v", err)
	}
	if _, _, err := cache.Models(nil); err == nil {
		t.Error("nil target accepted")
	}
}

// TestDeviceAxisWorkerDeterminism: a parallel cross-device run returns
// exactly the serial result, point for point.
func TestDeviceAxisWorkerDeterminism(t *testing.T) {
	shelf := testShelf(t)
	// One shared ModelCache: what must not vary with workers is the
	// evaluation, not the (deterministic) calibration.
	cache := NewModelCache()
	serial, err := deviceEngine(t, EvalModel, shelf, 1, sorBuilder, cache,
		FormAxis(perf.FormA, perf.FormB)).Run(Exhaustive{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := deviceEngine(t, EvalModel, shelf, runtime.NumCPU(), sorBuilder, cache,
		FormAxis(perf.FormA, perf.FormB)).Run(Exhaustive{})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Points) != len(parallel.Points) || len(serial.Points) == 0 {
		t.Fatalf("point counts differ: %d vs %d", len(serial.Points), len(parallel.Points))
	}
	for i := range serial.Points {
		if parallel.Points[i].Device != serial.Points[i].Device {
			t.Fatalf("device order diverged at %d", i)
		}
		samePoint(t, "parallel", *parallel.Points[i], *serial.Points[i], true)
	}
	if serial.Walls != parallel.Walls {
		t.Errorf("walls diverged: %+v vs %+v", serial.Walls, parallel.Walls)
	}
}

// TestDeviceAxisSimSharedMeasurement: under sim/hybrid scoring the
// measured cycles of a lane count are device-independent (one
// simulation, shared across the shelf) while the sim-backed throughput
// re-prices per device through FD.
func TestDeviceAxisSimSharedMeasurement(t *testing.T) {
	shelf, err := device.Shelf("stratix-v-gsd8-edu", "virtex-7-690t")
	if err != nil {
		t.Fatal(err)
	}
	build := func(lanes int) (*tir.Module, error) {
		return kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: lanes}.Module()
	}
	space, err := NewSpace(LanesAxis([]int{1, 2, 4}), DeviceAxis(shelf...))
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewDeviceModeEvaluatorCache(EvalHybrid, shelf, build,
		perf.Workload{NKI: 10}, perf.FormB, SimConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewEngine(space, eval, 0).Run(Exhaustive{})
	if err != nil {
		t.Fatal(err)
	}
	byLanes := map[int][]*Point{}
	for _, p := range r.Points {
		byLanes[p.Lanes] = append(byLanes[p.Lanes], p)
	}
	for lanes, ps := range byLanes {
		if len(ps) != len(shelf) {
			t.Fatalf("lanes=%d evaluated on %d devices", lanes, len(ps))
		}
		if ps[0].SimCycles <= 0 {
			t.Fatalf("lanes=%d carries no measurement", lanes)
		}
		if ps[0].SimCycles != ps[1].SimCycles || ps[0].SimItems != ps[1].SimItems {
			t.Errorf("lanes=%d: cycles differ across devices (%d vs %d)",
				lanes, ps[0].SimCycles, ps[1].SimCycles)
		}
		// The edu target clocks at 75 MHz, the Virtex at 250 MHz: same
		// cycles, different throughput.
		if ps[0].SimEKIT == ps[1].SimEKIT {
			t.Errorf("lanes=%d: SimEKIT identical across devices with different FD", lanes)
		}
	}
}

// TestShelfLowersEachLaneCountOnce: a 3-device exploration lowers
// each lane count's module once, and every device binds that one
// lowering to its own model (run with -race: eight workers race for
// the same cells).
func TestShelfLowersEachLaneCountOnce(t *testing.T) {
	shelf := testShelf(t)
	lanes := []int{1, 2, 4, 8}
	space, err := NewSpace(LanesAxis(lanes), DVAxis([]int{1, 2, 4}), DeviceAxis(shelf...))
	if err != nil {
		t.Fatal(err)
	}
	de, err := newEvaluator(EvalModel, shelf, nil, sorBuilder, perf.Workload{NKI: 10}, perf.FormB, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(space, de.eval, 8).Run(Exhaustive{}); err != nil {
		t.Fatal(err)
	}
	if n := settledCells[*costmodel.Lowered](&de.mods.lowerings); n != len(lanes) {
		t.Errorf("%d settled lowering cells for %d lane counts over a %d-device shelf", n, len(lanes), len(shelf))
	}
	for i, tgt := range shelf {
		if n := settledCells[*costmodel.CompiledModel](&de.evals[i].val.compiled); n != len(lanes) {
			t.Errorf("%s: %d bound programs for %d lane counts", tgt.Name, n, len(lanes))
		}
	}
}

// settledCells counts the memo cells in m that settled without error.
func settledCells[T any](m *sync.Map) int {
	n := 0
	m.Range(func(_, v any) bool {
		if v.(*onceCell[T]).err == nil {
			n++
		}
		return true
	})
	return n
}

// TestDeviceEvaluatorRejections: mis-wired shelves and unsupported
// axes fail loudly.
func TestDeviceEvaluatorRejections(t *testing.T) {
	shelf := testShelf(t)
	if _, err := NewDeviceModeEvaluatorCache(EvalModel, nil, sorBuilder,
		perf.Workload{NKI: 10}, perf.FormB, SimConfig{}, nil); err == nil {
		t.Error("empty shelf accepted")
	}
	if _, err := NewDeviceModeEvaluatorCache(EvalModel, []*device.Target{shelf[0], nil}, sorBuilder,
		perf.Workload{NKI: 10}, perf.FormB, SimConfig{}, nil); err == nil {
		t.Error("nil shelf entry accepted")
	}
	if _, err := NewDeviceModeEvaluatorCache(EvalModel, []*device.Target{shelf[0], shelf[0]}, sorBuilder,
		perf.Workload{NKI: 10}, perf.FormB, SimConfig{}, nil); err == nil {
		t.Error("duplicate shelf entry accepted")
	}
	if _, err := NewDeviceModeEvaluatorCache(EvalMode(99), shelf, sorBuilder,
		perf.Workload{NKI: 10}, perf.FormB, SimConfig{}, nil); err == nil {
		t.Error("unknown mode accepted")
	}

	// Axis built from a different (reordered) shelf: the label
	// cross-check must catch it before any point is priced on the wrong
	// device.
	reordered := []*device.Target{shelf[1], shelf[0], shelf[2]}
	space, err := NewSpace(LanesAxis([]int{1}), DeviceAxis(reordered...))
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewDeviceModeEvaluatorCache(EvalModel, shelf, sorBuilder,
		perf.Workload{NKI: 10}, perf.FormB, SimConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(space, eval, 1).Run(Exhaustive{}); err == nil ||
		!strings.Contains(err.Error(), "different shelves") {
		t.Errorf("reordered shelf not rejected: %v", err)
	}

	// An axis indexing past the shelf.
	space, err = NewSpace(LanesAxis([]int{1}), Axis{Name: AxisDevice, Values: []int{len(shelf)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(space, eval, 1).Run(Exhaustive{}); err == nil ||
		!strings.Contains(err.Error(), "shelf") {
		t.Errorf("out-of-range device index not rejected: %v", err)
	}

	// dv axis under sim scoring stays rejected with the device axis
	// present.
	space, err = NewSpace(LanesAxis([]int{1}), DVAxis([]int{1, 2}), DeviceAxis(shelf...))
	if err != nil {
		t.Fatal(err)
	}
	simEval, err := NewDeviceModeEvaluatorCache(EvalSim, shelf, sorBuilder,
		perf.Workload{NKI: 10}, perf.FormB, SimConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(space, simEval, 1).Run(Exhaustive{}); err == nil ||
		!strings.Contains(err.Error(), "dv") {
		t.Errorf("dv axis accepted by the sim-scored device evaluator: %v", err)
	}
}

// TestDeviceAxisKeysAndLabels: the device axis keys and renders by
// device name, and labelled spaces validate their labels.
// axisLabel returns the label the variant takes on the named axis, or
// false when the space has no such axis or the axis is unlabelled.
func axisLabel(s *Space, v Variant, name string) (string, bool) {
	i, ok := s.index[name]
	if !ok || len(s.axes[i].Labels) == 0 {
		return "", false
	}
	return s.axes[i].Labels[v[i]], true
}

func TestDeviceAxisKeysAndLabels(t *testing.T) {
	shelf := testShelf(t)
	space, err := NewSpace(LanesAxis([]int{1, 2}), DeviceAxis(shelf...))
	if err != nil {
		t.Fatal(err)
	}
	vs := space.Enumerate()
	if k := space.Key(vs[1]); k != "lanes=1,device=stratix-v-gsd8" {
		t.Errorf("key = %q", k)
	}
	if d := space.Describe(vs[1]); d != "lanes=1 device=stratix-v-gsd8" {
		t.Errorf("describe = %q", d)
	}
	if l, ok := axisLabel(space, vs[0], AxisDevice); !ok || l != "stratix-v-gsd8-edu" {
		t.Errorf("device label = %q,%v", l, ok)
	}
	if _, ok := axisLabel(space, vs[0], AxisLanes); ok {
		t.Error("unlabelled axis reported a label")
	}
	for _, bad := range []Axis{
		{Name: "x", Values: []int{1, 2}, Labels: []string{"one"}},
		{Name: "x", Values: []int{1, 2}, Labels: []string{"one", "one"}},
		{Name: "x", Values: []int{1, 2}, Labels: []string{"one", ""}},
	} {
		if _, err := NewSpace(bad); err == nil {
			t.Errorf("bad labels accepted: %+v", bad)
		}
	}
}
