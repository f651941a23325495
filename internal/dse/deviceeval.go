package dse

import (
	"fmt"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/evalstore"
	"repro/internal/membw"
	"repro/internal/perf"
)

// ModelCache memoises the one-time per-target model construction of
// Fig 2 — the synthesis-probe calibration (costmodel.Calibrate) and
// the STREAM-style bandwidth benchmark (membw.Build) — per device id.
// A cross-device exploration pays that work exactly once per shelf
// entry no matter how many points land on the device or how many
// engine workers race for it. A ModelCache is safe for concurrent use
// and can be shared across engines to amortise calibration between
// explorations of the same shelf.
type ModelCache struct {
	cells sync.Map // device name -> *onceCell[modelPair]

	// store, when non-nil, is the persistent tier: a target's models are
	// answered from their content-addressed record when present (neither
	// constructor runs) and archived after construction otherwise.
	store *evalstore.Store

	// Test seams: the cache-once differential test wraps these with
	// counters. Nil selects the real constructors.
	calibrate func(*device.Target) (*costmodel.Model, error)
	buildBW   func(*device.Target) (*membw.Model, error)
}

type modelPair struct {
	mdl *costmodel.Model
	bw  *membw.Model
	// desc is the full target description the models were built from.
	// Target is a flat value struct, so comparing it catches a caller
	// that tuned a target (the registry hands out fresh copies exactly
	// so callers can) while keeping its name — returning the cached
	// models there would silently price every point for the untuned
	// device.
	desc device.Target
}

// NewModelCache returns an empty per-device model cache.
func NewModelCache() *ModelCache { return &ModelCache{} }

// NewModelCacheStore returns a per-device model cache backed by a
// persistent evaluation store (nil store degrades to NewModelCache).
func NewModelCacheStore(store *evalstore.Store) *ModelCache {
	return &ModelCache{store: store}
}

// Store returns the cache's persistent tier, or nil.
func (mc *ModelCache) Store() *evalstore.Store { return mc.store }

// Models returns the calibrated cost model and bandwidth model for the
// target, constructing both exactly once per device id.
func (mc *ModelCache) Models(t *device.Target) (*costmodel.Model, *membw.Model, error) {
	if t == nil {
		return nil, nil, fmt.Errorf("dse: nil device")
	}
	cell := loadCell[onceCell[modelPair]](&mc.cells, t.Name)
	cell.once.Do(func() {
		// Persistent tier first: the record key covers the full target
		// description, so a hit is exactly the pair calibration would
		// rebuild — and a stale or damaged record is a miss, never an
		// error.
		if mc.store != nil {
			if mdl, bw, ok := evalstore.LoadModels(mc.store, t); ok {
				cell.val = modelPair{mdl: mdl, bw: bw, desc: *t}
				return
			}
		}
		calibrate, buildBW := mc.calibrate, mc.buildBW
		if calibrate == nil {
			calibrate = costmodel.Calibrate
		}
		if buildBW == nil {
			buildBW = membw.Build
		}
		var pair modelPair
		pair.mdl, cell.err = calibrate(t)
		if cell.err != nil {
			cell.err = fmt.Errorf("dse: calibrating cost model for %s: %w", t.Name, cell.err)
			return
		}
		pair.bw, cell.err = buildBW(t)
		if cell.err != nil {
			cell.err = fmt.Errorf("dse: building bandwidth model for %s: %w", t.Name, cell.err)
			return
		}
		pair.desc = *t
		cell.val = pair
		if mc.store != nil {
			_ = evalstore.SaveModels(mc.store, t, pair.mdl, pair.bw)
		}
	})
	if cell.err != nil {
		return nil, nil, cell.err
	}
	if cell.val.desc != *t {
		return nil, nil, fmt.Errorf("dse: device %s was already calibrated from a different description; use a distinct name (or a fresh ModelCache) for a tuned target", t.Name)
	}
	return cell.val.mdl, cell.val.bw, nil
}

// deviceEval evaluates points of a space that includes the device
// axis: axis values index the shelf, each shelf entry gets its own
// lazily calibrated modelEval (estimates are per-device — the same
// module costs differently against different capacity pools and
// bandwidth curves), while module builds and simulator measurements
// are shared across devices (both depend only on the variant, never on
// the target).
type deviceEval struct {
	mode  EvalMode
	shelf []*device.Target
	cache *ModelCache
	mods  *moduleCache
	sm    *simMeasurer // nil under EvalModel
	w     perf.Workload
	form  perf.Form
	emode ModelEvalMode
	axes  *axisGuard

	evals []onceCell[*modelEval] // one per shelf entry
}

// NewDeviceEvaluator returns the cross-device evaluator over the
// paper's cost stack: the device axis (values indexing shelf, see
// DeviceAxis) selects which target's calibrated cost and bandwidth
// models price the variant; lanes, dv, form and fclk behave exactly as
// under the standard evaluator. Spaces without a device axis evaluate
// against shelf[0]. Per-target calibration is memoised by an internal
// ModelCache; pass a shared one through NewDeviceModeEvaluatorCache to
// amortise it across engines.
func NewDeviceEvaluator(shelf []*device.Target, build VariantBuilder,
	w perf.Workload, form perf.Form) (Evaluator, error) {
	return NewDeviceModeEvaluator(EvalModel, shelf, build, w, form, SimConfig{})
}

// NewDeviceModeEvaluator is NewDeviceEvaluator with a selectable
// scorer, mirroring NewModeEvaluator: under EvalSim and EvalHybrid
// every point additionally carries the simulated cycles. The
// simulator's measurement arenas are shared across the shelf — cycles
// depend only on the module, so an N-device sim-backed sweep simulates
// each lane count once and re-prices it per device through FD.
func NewDeviceModeEvaluator(mode EvalMode, shelf []*device.Target, build VariantBuilder,
	w perf.Workload, form perf.Form, cfg SimConfig) (Evaluator, error) {
	return newDeviceEval(mode, shelf, build, w, form, cfg, NewModelCache())
}

// NewDeviceModeEvaluatorStore is NewDeviceModeEvaluator over a
// persistent evaluation store: per-device calibrated models, model
// estimates and simulator measurements are all answered from their
// content-addressed records when present. A nil store is the plain
// in-memory evaluator.
func NewDeviceModeEvaluatorStore(mode EvalMode, shelf []*device.Target, build VariantBuilder,
	w perf.Workload, form perf.Form, cfg SimConfig, store *evalstore.Store) (Evaluator, error) {
	return newDeviceEval(mode, shelf, build, w, form, cfg, NewModelCacheStore(store))
}

// NewDeviceModeEvaluatorCache is NewDeviceModeEvaluator over a
// caller-owned ModelCache; a store-backed cache (NewModelCacheStore)
// extends its persistent tier to estimates and measurements too.
func NewDeviceModeEvaluatorCache(mode EvalMode, shelf []*device.Target, build VariantBuilder,
	w perf.Workload, form perf.Form, cfg SimConfig, cache *ModelCache) (Evaluator, error) {
	return newDeviceEval(mode, shelf, build, w, form, cfg, cache)
}

func newDeviceEval(mode EvalMode, shelf []*device.Target, build VariantBuilder,
	w perf.Workload, form perf.Form, cfg SimConfig, cache *ModelCache) (Evaluator, error) {
	switch mode {
	case EvalModel, EvalSim, EvalHybrid:
	default:
		return nil, fmt.Errorf("dse: unknown evaluation mode %d", int(mode))
	}
	if len(shelf) == 0 {
		return nil, fmt.Errorf("dse: empty device shelf")
	}
	if cache == nil {
		cache = NewModelCache()
	}
	seen := map[string]bool{}
	for i, t := range shelf {
		if t == nil {
			return nil, fmt.Errorf("dse: nil device at shelf position %d", i)
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("dse: device %s appears twice on the shelf", t.Name)
		}
		seen[t.Name] = true
	}
	de := &deviceEval{
		mode:  mode,
		shelf: shelf,
		cache: cache,
		mods:  newModuleCache(build),
		w:     w,
		form:  form,
		emode: cfg.ModelEval,
		evals: make([]onceCell[*modelEval], len(shelf)),
		axes:  newAxisGuard("the device-shelf evaluator", AxisLanes, AxisDV, AxisForm, AxisFclk, AxisDevice),
	}
	if mode != EvalModel {
		de.sm = newSimMeasurer(de.mods, cfg, cache.store)
		de.axes = simAxisGuard(mode, AxisDevice)
	}
	return de.eval, nil
}

// modelEvalFor lazily builds the per-device modelEval: the first point
// landing on a shelf entry calibrates its models (through the
// ModelCache), everyone else reuses the settled evaluator — and with
// it the per-(lanes, dv) estimate memos, which are device-specific.
func (de *deviceEval) modelEvalFor(idx int) (*modelEval, error) {
	cell := &de.evals[idx]
	cell.once.Do(func() {
		mdl, bw, err := de.cache.Models(de.shelf[idx])
		if err != nil {
			cell.err = err
			return
		}
		cell.val = newModelEvalShared(mdl, bw, de.mods, de.w, de.form, de.emode, de.cache.store)
	})
	return cell.val, cell.err
}

// deviceIndex resolves the variant's shelf index, cross-checking the
// axis labels against the shelf so a space built over a different
// shelf (or a reordered one) fails loudly instead of silently pricing
// points on the wrong device.
func (de *deviceEval) deviceIndex(b *spaceBinding, v Variant) (int, error) {
	idx := b.value(v, b.device, 0)
	if idx < 0 || idx >= len(de.shelf) {
		return 0, fmt.Errorf("dse: device axis value %d outside the %d-entry shelf", idx, len(de.shelf))
	}
	if b.device < 0 {
		return idx, nil
	}
	if labels := b.space.axes[b.device].Labels; len(labels) != 0 && labels[v[b.device]] != de.shelf[idx].Name {
		return 0, fmt.Errorf("dse: device axis labels %q at index %d but the shelf has %s there (axis and evaluator built from different shelves?)",
			labels[v[b.device]], idx, de.shelf[idx].Name)
	}
	return idx, nil
}

func (de *deviceEval) eval(s *Space, v Variant) (*Point, error) {
	b, err := de.axes.bind(s)
	if err != nil {
		return nil, err
	}
	idx, err := de.deviceIndex(b, v)
	if err != nil {
		return nil, err
	}
	me, err := de.modelEvalFor(idx)
	if err != nil {
		return nil, err
	}
	p, err := me.point(b, v)
	if err != nil {
		return nil, fmt.Errorf("dse: on %s: %w", de.shelf[idx].Name, err)
	}
	p.Device = de.shelf[idx].Name
	if de.mode == EvalModel {
		return p, nil
	}
	lanes := b.value(v, b.lanes, 1)
	meas, err := de.sm.measure(lanes)
	if err != nil {
		return nil, err
	}
	if err := attachSim(p, de.mode, lanes, meas); err != nil {
		return nil, err
	}
	return p, nil
}
