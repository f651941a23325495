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
	// answered from their content-addressed record when present (the
	// bandwidth benchmark does not run, and evalstore.LoadModels
	// recalibrates the cost model outside the calibrate seam) and
	// archived after construction otherwise.
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

// seeded returns a model cache that already holds the supplied models
// for their target, so an evaluator over it never calibrates: the
// single-target constructors price against the caller's models.
func seeded(mdl *costmodel.Model, bw *membw.Model) *ModelCache {
	mc := NewModelCache()
	if t := mdl.Target; t != nil {
		cell := loadCell[onceCell[modelPair]](&mc.cells, t.Name)
		cell.once.Do(func() { cell.val = modelPair{mdl: mdl, bw: bw, desc: *t} })
	}
	return mc
}

// deviceEval is the one Evaluator implementation: every exported
// constructor assembles one through newEvaluator. Device-axis values
// index the shelf, and a space without a device axis evaluates on
// shelf[0], so a single target is a one-entry shelf. Each shelf entry
// gets its own lazily built modelEval (estimates are per-device: the
// same module costs differently against different capacity pools and
// bandwidth curves), while module builds and simulated timings are
// shared across devices (both depend only on the variant, never on
// the target).
type deviceEval struct {
	mode  EvalMode
	shelf []*device.Target
	cache *ModelCache
	mods  *moduleCache
	w     perf.Workload
	form  perf.Form
	axes  *axisGuard

	evals []onceCell[*modelEval] // one per shelf entry
}

// NewEvaluator returns the standard evaluator over the paper's cost
// stack: build the variant's module (lanes axis), cost it with the
// calibrated resource model (dv axis selects the vectorised estimate),
// extract the Table I parameters against the bandwidth model, and
// evaluate EKIT under the memory-execution form (form axis, defaulting
// to the given form when the space has no form axis). An fclk axis
// (MHz values) overrides the device frequency FD, re-pricing
// throughput without re-costing resources.
//
// costmodel.Estimate and perf.Extract are pure, so the evaluator
// memoises module builds and their stream inventories per lane count,
// and estimates together with their extracted Table I parameters per
// (lanes, dv). Form and fclk axes only re-price: per point, the
// evaluator overrides FD, evaluates EKIT and derives the utilisation
// and bandwidth-demand bars.
func NewEvaluator(mdl *costmodel.Model, bw *membw.Model, build VariantBuilder,
	w perf.Workload, form perf.Form) Evaluator {
	return supplied(EvalModel, mdl, bw, build, w, form, SimConfig{})
}

// NewSimEvaluator returns the simulation-backed evaluator: each
// variant is scored by the pipeline simulator's cycles-per-instance,
// taken from the compiled design's structure, EKIT = FD / cycles. The
// model still fills the resource and bandwidth fields (and ModelEKIT),
// so walls and pruning behave exactly as under the standard evaluator.
func NewSimEvaluator(mdl *costmodel.Model, bw *membw.Model, build VariantBuilder,
	w perf.Workload, form perf.Form, cfg SimConfig) Evaluator {
	return supplied(EvalSim, mdl, bw, build, w, form, cfg)
}

// NewDeviceModeEvaluatorStore is NewDeviceModeEvaluatorCache over a
// fresh model cache backed by a persistent evaluation store: per-device
// bandwidth tables and model estimates are answered from their
// content-addressed records when present. A nil store is the plain
// in-memory evaluator.
func NewDeviceModeEvaluatorStore(mode EvalMode, shelf []*device.Target, build VariantBuilder,
	w perf.Workload, form perf.Form, cfg SimConfig, store *evalstore.Store) (Evaluator, error) {
	return NewDeviceModeEvaluatorCache(mode, shelf, build, w, form, cfg, NewModelCacheStore(store))
}

// NewDeviceModeEvaluatorCache returns the evaluator of the given mode
// over a shelf of targets: the device axis (values indexing shelf, see
// DeviceAxis) selects which target's calibrated cost and bandwidth
// models price the variant; lanes, dv, form and fclk behave exactly as
// under NewEvaluator. Spaces without a device axis evaluate against
// shelf[0]. Under EvalSim and EvalHybrid every point additionally
// carries the simulated cycles; they are shared across the shelf
// (cycles depend only on the module), so an N-device sweep times each
// lane count once and re-prices it per device through FD. Each
// target's models come from cache, calibrated on first use; a shared
// cache amortises calibration across engines, a store-backed one
// (NewModelCacheStore) extends its persistent tier to estimates, and
// nil selects a fresh in-memory cache.
func NewDeviceModeEvaluatorCache(mode EvalMode, shelf []*device.Target, build VariantBuilder,
	w perf.Workload, form perf.Form, cfg SimConfig, cache *ModelCache) (Evaluator, error) {
	de, err := newEvaluator(mode, shelf, cache, build, w, form, cfg)
	if err != nil {
		return nil, err
	}
	return de.eval, nil
}

// supplied is the single-target evaluator over pre-calibrated models: a
// one-entry shelf over a cache seeded with them. It cannot fail for a
// model with a target; for one without, every evaluation reports why.
func supplied(mode EvalMode, mdl *costmodel.Model, bw *membw.Model, build VariantBuilder,
	w perf.Workload, form perf.Form, cfg SimConfig) Evaluator {
	de, err := newEvaluator(mode, []*device.Target{mdl.Target}, seeded(mdl, bw), build, w, form, cfg)
	if err != nil {
		return func(*Space, Variant) (*Point, error) { return nil, err }
	}
	return de.eval
}

// newEvaluator assembles every evaluator: mode selects the scorer, the
// shelf the targets, cache their models (and the optional persistent
// store). cfg is read by nothing: SimConfig's fields stay only until
// the benchmark stops setting them.
func newEvaluator(mode EvalMode, shelf []*device.Target, cache *ModelCache, build VariantBuilder,
	w perf.Workload, form perf.Form, cfg SimConfig) (*deviceEval, error) {
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
		evals: make([]onceCell[*modelEval], len(shelf)),
		axes:  axisGuardFor(mode),
	}
	return de, nil
}

// axisGuardFor returns the axis check of a mode's evaluator, naming the
// evaluator in rejections; every mode accepts the device axis. The
// model scores lanes, dv, form and fclk. Neither simulation-backed
// mode takes a dv axis: the simulator executes one work-item per lane
// per cycle and cannot observe medium-grained vectorisation, so a dv
// sweep must stay on the model. Pure sim scoring also rejects a form
// axis: simulated cycles are form-independent, so EvalSim would
// silently tie every form at a lane count; hybrid mode keeps it, since
// there the model ranks.
func axisGuardFor(mode EvalMode) *axisGuard {
	switch mode {
	case EvalSim:
		return newAxisGuard("the sim-scored evaluator (form does not change simulated cycles; use hybrid)",
			AxisLanes, AxisFclk, AxisDevice)
	case EvalHybrid:
		return newAxisGuard("the simulation-backed evaluator", AxisLanes, AxisForm, AxisFclk, AxisDevice)
	}
	return newAxisGuard("the standard evaluator", AxisLanes, AxisDV, AxisForm, AxisFclk, AxisDevice)
}

// modelEvalFor lazily builds the per-device modelEval: the first point
// landing on a shelf entry takes its models from the ModelCache
// (calibrating them unless the cache already holds them), everyone
// else reuses the settled evaluator — and with it the per-(lanes, dv)
// estimate memos, which are device-specific.
func (de *deviceEval) modelEvalFor(idx int) (*modelEval, error) {
	cell := &de.evals[idx]
	cell.once.Do(func() {
		mdl, bw, err := de.cache.Models(de.shelf[idx])
		if err != nil {
			cell.err = err
			return
		}
		cell.val = newModelEval(mdl, bw, de.mods, de.w, de.form, de.cache.store)
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

// eval prices one point. Only a space with a device axis names the
// device, on the point and in a pricing error; without one the target
// is implicit in the evaluator (and available as Est.Target).
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
		if b.device >= 0 {
			err = fmt.Errorf("dse: on %s: %w", de.shelf[idx].Name, err)
		}
		return nil, err
	}
	if b.device >= 0 {
		p.Device = de.shelf[idx].Name
	}
	if de.mode == EvalModel {
		return p, nil
	}
	lanes := b.value(v, b.lanes, 1)
	cycles, items, err := de.mods.timing(lanes)
	if err != nil {
		return nil, err
	}
	if err := attachSim(p, de.mode, lanes, cycles, items); err != nil {
		return nil, err
	}
	return p, nil
}
