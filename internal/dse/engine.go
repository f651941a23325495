package dse

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/costmodel"
	"repro/internal/evalstore"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/tir"
)

// Evaluator costs one point of a Space. Evaluators must be pure: the
// same variant always yields the same Point (or the same error), which
// is what lets the engine memoise and parallelise freely.
type Evaluator func(s *Space, v Variant) (*Point, error)

// onceCell is a concurrency-safe memo slot: the first caller computes,
// everyone else waits on the Once and reads the settled values.
type onceCell[T any] struct {
	once sync.Once
	val  T
	err  error
}

// loadCell returns the memo cell m holds under k, storing a fresh one
// on first use. The Load fast path keeps a hit allocation-free:
// LoadOrStore alone would allocate a new cell on every call, hits
// included.
func loadCell[C any, K comparable](m *sync.Map, k K) *C {
	if c, ok := m.Load(k); ok {
		return c.(*C)
	}
	c, _ := m.LoadOrStore(k, new(C))
	return c.(*C)
}

// moduleCache memoises variant-module builds per lane count. It is its
// own type (rather than a field bundle on modelEval) so evaluators that
// hold several per-device modelEvals — the module of a lane count is
// device-independent — and the simulation measurer can share one build
// per lane count across all of them.
type moduleCache struct {
	build  VariantBuilder
	builds sync.Map // lanes int -> *onceCell[*tir.Module]
	irs    sync.Map // lanes int -> *onceCell[string]
}

func newModuleCache(build VariantBuilder) *moduleCache {
	return &moduleCache{build: build}
}

// module builds the lanes-axis variant once per lane count.
func (mc *moduleCache) module(lanes int) (*tir.Module, error) {
	cell := loadCell[onceCell[*tir.Module]](&mc.builds, lanes)
	cell.once.Do(func() {
		cell.val, cell.err = mc.build(lanes)
		if cell.err != nil {
			cell.err = fmt.Errorf("dse: building %d-lane variant: %w", lanes, cell.err)
		}
	})
	return cell.val, cell.err
}

// moduleIR returns the canonical IR text of a lane count's module —
// the kernel-IR half of every evalstore content key — rendered once
// per lane count (Module.String is linear in the design size, so the
// persistent-cache paths must not pay it per point).
func (mc *moduleCache) moduleIR(lanes int) (string, error) {
	cell := loadCell[onceCell[string]](&mc.irs, lanes)
	cell.once.Do(func() {
		m, err := mc.module(lanes)
		if err != nil {
			cell.err = err
			return
		}
		cell.val = m.String()
	})
	return cell.val, cell.err
}

// ModelEvalMode selects which implementation of the cost model scores
// variants: the compiled flat estimate program (the default — see
// costmodel.CompiledModel) or the tree-walk oracle it is pinned
// bit-identical to. The two produce the same estimates on every input
// (the differential tests enforce it), so this is a speed knob and a
// cross-check lever, never a result knob.
type ModelEvalMode int

const (
	// ModelEvalCompiled compiles (kernel IR × target) once per lane
	// count and answers every (lanes, dv) estimate with closed-form
	// arithmetic.
	ModelEvalCompiled ModelEvalMode = iota
	// ModelEvalTree walks the IR per estimate — the original oracle,
	// kept reachable (tytradse -modeleval=tree) for differential runs.
	ModelEvalTree
)

// String names the mode as the -modeleval flag spells it.
func (m ModelEvalMode) String() string {
	switch m {
	case ModelEvalCompiled:
		return "compiled"
	case ModelEvalTree:
		return "tree"
	}
	return fmt.Sprintf("modeleval-?(%d)", int(m))
}

// ModelEvalNames lists the canonical -modeleval flag values.
func ModelEvalNames() []string { return []string{"compiled", "tree"} }

// ParseModelEval resolves a -modeleval flag value; the empty string
// selects the compiled default.
func ParseModelEval(s string) (ModelEvalMode, error) {
	switch s {
	case "compiled", "":
		return ModelEvalCompiled, nil
	case "tree", "oracle":
		return ModelEvalTree, nil
	}
	return 0, fmt.Errorf("dse: unknown model evaluation mode %q (have: %v)", s, ModelEvalNames())
}

// modelEval is the memoised cost-model core of one shelf entry: module
// builds per lane count, and estimates with their Table I parameters
// per (lanes, dv). Every mode prices through it (the simulation-backed
// ones need the same model-side point for the resource bars, the walls
// and the calibration cross-check).
type modelEval struct {
	mdl  *costmodel.Model
	bw   *membw.Model
	mods *moduleCache
	w    perf.Workload
	form perf.Form

	// emode selects the compiled estimate program or the tree-walk
	// oracle for cold estimates (warm paths — the in-memory memo and
	// the store — are mode-independent, which the differential tests
	// rely on).
	emode ModelEvalMode

	// store is the optional persistent tier: estimates are read through
	// it (content-keyed by kernel IR, dv and target) and written back on
	// recompute. nil keeps the evaluator purely in-memory.
	store *evalstore.Store
	// estimateFn is a test seam wrapping the estimator; the warm==cold
	// differential tests count recomputations through it. nil selects
	// the estimator emode names.
	estimateFn func(m *tir.Module, dv int) (*costmodel.Estimate, error)

	ests     sync.Map // [2]int{lanes, dv} -> *estCell
	compiled sync.Map // lanes int -> *onceCell[*costmodel.CompiledModel]
}

// estCell is the memo cell of one (lanes, dv): the estimate and the
// Table I parameters extracted from it, settled together under one
// Once. Every point of the cell — the form and fclk axes — prices the
// same Params, so perf.Extract runs once per cell, whether the
// estimate was computed or read from the store.
type estCell struct {
	once sync.Once
	est  *costmodel.Estimate
	par  perf.Params
	err  error
}

// newModelEval wires a modelEval to a module cache the caller shares
// (every shelf entry's modelEval and the simulation measurer build each
// lane count once over one cache).
func newModelEval(mdl *costmodel.Model, bw *membw.Model, mods *moduleCache,
	w perf.Workload, form perf.Form, emode ModelEvalMode, store *evalstore.Store) *modelEval {
	return &modelEval{mdl: mdl, bw: bw, mods: mods, w: w, form: form, emode: emode, store: store}
}

// compiledModel compiles the lane count's module against the model
// exactly once; every dv of the lane count evaluates the same flat
// program.
func (me *modelEval) compiledModel(lanes int, m *tir.Module) (*costmodel.CompiledModel, error) {
	cell := loadCell[onceCell[*costmodel.CompiledModel]](&me.compiled, lanes)
	cell.once.Do(func() { cell.val, cell.err = me.mdl.Compile(m) })
	return cell.val, cell.err
}

// module builds the lanes-axis variant once per lane count.
func (me *modelEval) module(lanes int) (*tir.Module, error) {
	return me.mods.module(lanes)
}

// params returns the (lanes, dv) memo cell, settling it on first use:
// the estimate, then the Table I parameters extracted from it. An
// error from either step is memoised with the cell, so every point of
// the cell reports the same one.
func (me *modelEval) params(lanes, dv int) *estCell {
	c := loadCell[estCell](&me.ests, [2]int{lanes, dv})
	c.once.Do(func() {
		if c.est, c.err = me.estimate(lanes, dv); c.err != nil {
			return
		}
		if c.par, c.err = perf.Extract(c.est, me.bw, me.w); c.err != nil {
			c.err = fmt.Errorf("dse: extracting %d-lane parameters: %w", lanes, c.err)
		}
	})
	return c
}

// estimate costs the (lanes, dv) variant; params calls it once per
// process — and, with a backing store, the cost model runs once per
// store lifetime: a warm run rehydrates the estimate from its
// content-addressed record (a corrupt or version-skewed record
// degrades to recompute-and-rewrite).
func (me *modelEval) estimate(lanes, dv int) (*costmodel.Estimate, error) {
	m, err := me.module(lanes)
	if err != nil {
		return nil, err
	}
	var key string
	if me.store != nil {
		ir, err := me.mods.moduleIR(lanes)
		if err != nil {
			return nil, err
		}
		key = evalstore.EstimateKey(ir, dv, me.mdl.Target)
		if est, ok := evalstore.LoadEstimate(me.store, key, m, me.mdl.Target); ok {
			return est, nil
		}
	}
	estimate := me.estimateFn
	if estimate == nil {
		if me.emode == ModelEvalTree {
			estimate = me.mdl.EstimateVectorised
		} else {
			estimate = func(m *tir.Module, dv int) (*costmodel.Estimate, error) {
				cm, err := me.compiledModel(lanes, m)
				if err != nil {
					return nil, err
				}
				return cm.EstimateVectorised(dv)
			}
		}
	}
	est, err := estimate(m, dv)
	if err != nil {
		if dv == 1 {
			return nil, fmt.Errorf("dse: costing %d-lane variant: %w", lanes, err)
		}
		return nil, fmt.Errorf("dse: costing %d-lane dv=%d variant: %w", lanes, dv, err)
	}
	if me.store != nil {
		// Best-effort write-back: a read-only or full cache directory
		// must not fail the exploration, it just stays cold.
		_ = evalstore.SaveEstimate(me.store, key, est)
	}
	return est, nil
}

// point evaluates one variant through the cost stack, honouring the
// lanes, dv, form and fclk axes of the bound space. Everything but the
// pricing comes from the (lanes, dv) memo cell.
func (me *modelEval) point(b *spaceBinding, v Variant) (*Point, error) {
	lanes := b.value(v, b.lanes, 1)
	fclkHz, err := b.fclkHz(v)
	if err != nil {
		return nil, err
	}
	c := me.params(lanes, b.value(v, b.dv, 1))
	if c.err != nil {
		return nil, c.err
	}
	return pricePoint(c.est, c.par, perf.Form(b.value(v, b.form, int(me.form))), lanes, fclkHz)
}

// pricePoint derives the full Point from a memoised estimate and its
// Table I parameters: the EKIT throughput under the form and the Fig 15
// utilisation bars. fclkHz > 0 overrides the extracted FD (the fclk
// axis); 0 keeps the estimate's Fmax. par is a copy, so the override
// never reaches the memo.
func pricePoint(est *costmodel.Estimate, par perf.Params, form perf.Form,
	lanes int, fclkHz float64) (*Point, error) {
	if fclkHz > 0 {
		par.FD = fclkHz
	}
	ekit, bd, err := par.EKIT(form)
	if err != nil {
		return nil, fmt.Errorf("dse: evaluating %d-lane variant: %w", lanes, err)
	}
	p := &Point{Lanes: lanes, Est: est, Par: par, EKIT: ekit, ModelEKIT: ekit,
		Breakdown: bd, Fits: est.Fits()}
	p.UtilALUT, p.UtilReg, p.UtilBRAM, p.UtilDSP = est.Utilisation()
	if form == perf.FormC {
		// Form C stages the NDRange's working set in on-chip BRAM
		// (§III-5): the BRAM bar carries it beside the design's own, and
		// the variant fits only when both fit together.
		staged := est.Used
		staged.BRAM += int(est.WorkingSetBits())
		_, _, p.UtilBRAM, _ = staged.Utilisation(est.Target.Capacity)
		p.Fits = p.Fits && est.FormCFeasible()
	}

	// Full-rate bandwidth demand: every lane consumes one tuple per
	// cycle (the paper's pipelined configurations).
	demand := par.FD * float64(par.KNL) * float64(par.DV) *
		float64(par.NWPT) * float64(par.WordBytes) / par.CyclesPerItem()
	p.UtilGMemBW = demand / (par.GPB * par.RhoG)
	hostDemand := demand
	if form != perf.FormA {
		// Forms B/C move host data once per NKI instances.
		hostDemand /= float64(par.NKI)
	}
	p.UtilHostBW = hostDemand / (par.HPB * par.RhoH)
	return p, nil
}

// Engine evaluates points of a Space through a worker pool with a
// memoised per-variant cache. The evaluation stack is pure, so the
// cache never invalidates and results are deterministic regardless of
// worker count or scheduling. An Engine is safe for concurrent use.
type Engine struct {
	Space *Space
	Eval  Evaluator
	// Workers is the evaluation parallelism (the -j of cmd/tytradse).
	Workers int

	// cells is the per-variant memo: a sharded dense table over the
	// space's Index range, built lazily so the zero-value Engine still
	// works. String keys (Space.Key) are no longer touched per
	// evaluation — they remain the cross-run identity for reports and
	// the evalstore.
	cellsOnce sync.Once
	cells     *cellTable
}

// NewEngine builds an engine; workers <= 0 selects GOMAXPROCS.
func NewEngine(space *Space, eval Evaluator, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{Space: space, Eval: eval, Workers: workers}
}

// table returns the engine's cell table, sized to the space on first
// use.
func (e *Engine) table() *cellTable {
	e.cellsOnce.Do(func() { e.cells = newCellTable(e.Space.Size()) })
	return e.cells
}

// evalOne evaluates a single variant through the memo cache.
func (e *Engine) evalOne(v Variant) (*Point, error) {
	cell := e.table().cell(e.Space.Index(v))
	cell.once.Do(func() { cell.val, cell.err = e.Eval(e.Space, v) })
	return cell.val, cell.err
}

// EvalAll evaluates the variants concurrently and returns their points
// in input order. On failure it returns the error of the
// lowest-indexed failing variant, so errors are deterministic too. A
// variant that is not a point of the space (wrong length, an index
// outside its axis) fails the call before anything is evaluated.
func (e *Engine) EvalAll(vs []Variant) ([]*Point, error) {
	for _, v := range vs {
		if err := e.Space.checkVariant(v); err != nil {
			return nil, err
		}
	}
	points, errs := e.evalAllKeep(vs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}

// evalAllKeep is EvalAll without the error short-circuit: it returns
// every point alongside its per-variant error, letting callers that
// prune (WallPruned) consume a wave's successful prefix and discard
// failures past the cut — exactly what a serial sweep would never
// have evaluated.
func (e *Engine) evalAllKeep(vs []Variant) ([]*Point, []error) {
	points := make([]*Point, len(vs))
	errs := make([]error, len(vs))
	workers := e.Workers
	if workers > len(vs) {
		workers = len(vs)
	}
	if workers <= 1 {
		for i, v := range vs {
			points[i], errs[i] = e.evalOne(v)
		}
	} else {
		// Workers claim chunked index ranges off one atomic counter —
		// one contended add per chunk instead of one channel send per
		// variant, which at compiled-model evaluation speeds would
		// otherwise dominate the wall clock. Results land at their input
		// index, so output order is deterministic regardless of which
		// worker claims which chunk.
		chunk := len(vs) / (workers * 4)
		if chunk < 1 {
			chunk = 1
		}
		if chunk > 256 {
			chunk = 256
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					hi := int(next.Add(int64(chunk)))
					lo := hi - chunk
					if lo >= len(vs) {
						return
					}
					if hi > len(vs) {
						hi = len(vs)
					}
					for i := lo; i < hi; i++ {
						points[i], errs[i] = e.evalOne(vs[i])
					}
				}
			}()
		}
		wg.Wait()
	}
	return points, errs
}

// Walls are the design-space bounds of Fig 15, as lane counts: the
// smallest evaluated lane count that crossed each limit, or 0.
type Walls struct {
	// Compute is where the device runs out of a resource.
	Compute int
	// Host is where the demanded host-link bandwidth exceeds the
	// sustained rate (meaningful under form A, where every instance
	// re-streams over the link).
	Host int
	// DRAM is where the demanded device-DRAM bandwidth exceeds the
	// sustained rate.
	DRAM int
}

// Result is the outcome of one exploration: the evaluated variants (a
// strategy may evaluate only part of the space), their points in
// deterministic order, the walls, and the selected best.
type Result struct {
	Space    *Space
	Strategy string

	Variants []Variant
	Points   []*Point

	// Best is the highest-EKIT point that fits the device, or nil;
	// BestVariant is its coordinate.
	Best        *Point
	BestVariant Variant

	Walls Walls

	// Frontier holds indices into Points of the EKIT-vs-utilisation
	// Pareto frontier; only the ParetoFrontier strategy fills it.
	Frontier []int

	// Search provenance, filled by Engine.Search: Evals is the number
	// of evaluations charged to the run (distinct variants evaluated —
	// for a pruning strategy this includes speculative wave tails the
	// pool evaluated but the strategy discarded), Coverage is Evals
	// over the space size, Stop records why the run ended, and Seed
	// and Budget echo the options the run was started with.
	Evals    int
	Coverage float64
	Stop     StopReason
	Seed     int64
	Budget   Budget
	// Trajectory is the best-so-far curve, one sample per wave.
	Trajectory []TrajectorySample
}

// bestOf scans points in order and returns the highest-EKIT fitting
// point and its variant (nil if none fit). Earlier points win ties,
// matching the legacy sweep's strict comparison.
func bestOf(vs []Variant, ps []*Point) (*Point, Variant) {
	var best *Point
	var bv Variant
	for i, p := range ps {
		if p == nil || !p.Fits {
			continue
		}
		if best == nil || p.EKIT > best.EKIT {
			best, bv = p, vs[i]
		}
	}
	return best, bv
}

// newResult assembles a Result from evaluated points: walls and best
// are derived here so every strategy reports them consistently.
func newResult(e *Engine, strategy string, vs []Variant, ps []*Point) *Result {
	r := &Result{Space: e.Space, Strategy: strategy, Variants: vs, Points: ps}
	r.Walls = computeWalls(e.Space, vs, ps)
	r.Best, r.BestVariant = bestOf(vs, ps)
	return r
}

// computeWalls records, per limit, the lane count at the smallest
// lanes-axis position of any evaluated point crossing it — one pass,
// independent of evaluation order, so parallel runs agree with serial
// ones.
func computeWalls(s *Space, vs []Variant, ps []*Point) Walls {
	li, ok := s.AxisIndex(AxisLanes)
	if !ok {
		return Walls{}
	}
	// Smallest crossing lanes-axis positions, len(Values) while uncrossed.
	n := len(s.Axes()[li].Values)
	compute, host, dram := n, n, n
	for i, v := range vs {
		p, pos := ps[i], v[li]
		if p == nil {
			continue
		}
		if !p.Fits && pos < compute {
			compute = pos
		}
		if p.UtilHostBW >= 1 && pos < host {
			host = pos
		}
		if p.UtilGMemBW >= 1 && pos < dram {
			dram = pos
		}
	}
	lanes := func(pos int) int {
		if pos == n {
			return 0
		}
		return s.Axes()[li].Values[pos]
	}
	return Walls{Compute: lanes(compute), Host: lanes(host), DRAM: lanes(dram)}
}

// Slice restricts a result to the variants taking the given value on
// the named axis (e.g. one memory-execution form of a lanes×form
// exploration), recomputing walls, best and — when the source carried
// one — the Pareto frontier over the slice. The value must be one of
// the axis's values; a value the axis carries but the search never
// evaluated (a pruned device, a budgeted search) yields an empty
// slice, not an error.
func (r *Result) Slice(axis string, value int) (*Result, error) {
	ai, ok := r.Space.AxisIndex(axis)
	if !ok {
		return nil, fmt.Errorf("dse: result has no %q axis", axis)
	}
	onAxis := false
	for _, v := range r.Space.Axes()[ai].Values {
		if v == value {
			onAxis = true
			break
		}
	}
	if !onAxis {
		return nil, fmt.Errorf("dse: axis %q has no value %d", axis, value)
	}
	out := &Result{Space: r.Space, Strategy: r.Strategy}
	for i, v := range r.Variants {
		if r.Space.Axes()[ai].Values[v[ai]] != value {
			continue
		}
		out.Variants = append(out.Variants, v)
		out.Points = append(out.Points, r.Points[i])
	}
	out.Walls = computeWalls(r.Space, out.Variants, out.Points)
	out.Best, out.BestVariant = bestOf(out.Variants, out.Points)
	if r.Strategy == (ParetoFrontier{}).Name() {
		out.Frontier = paretoFrontier(out.Points)
	}
	return out, nil
}

// Sweep converts a result over a lanes axis into the legacy Sweep
// shape consumed by the report tables and the advice pass. Every axis
// other than lanes must be single-valued in the result (Slice first
// otherwise). Points appear in lanes-axis order; walls and best are
// recomputed with the exact legacy scan so adapter output is identical
// to the pre-engine implementation.
func (r *Result) Sweep(form perf.Form) (*Sweep, error) {
	li, ok := r.Space.AxisIndex(AxisLanes)
	if !ok {
		return nil, fmt.Errorf("dse: result has no lanes axis")
	}
	if err := r.singleValuedExcept(li); err != nil {
		return nil, err
	}
	w := computeWalls(r.Space, r.Variants, r.Points)
	sw := &Sweep{Form: form, ComputeWall: w.Compute, HostWall: w.Host, DRAMWall: w.DRAM}
	lanesAxis := r.Space.Axes()[li]
	for vi := range lanesAxis.Values {
		for i, v := range r.Variants {
			if v[li] != vi || r.Points[i] == nil {
				continue
			}
			sw.Points = append(sw.Points, *r.Points[i])
		}
	}
	for i := range sw.Points {
		p := &sw.Points[i]
		if !p.Fits {
			continue
		}
		if sw.Best == nil || p.EKIT > sw.Best.EKIT {
			sw.Best = p
		}
	}
	return sw, nil
}

// singleValuedExcept errors when any axis other than the given ones
// takes more than one value across the result's variants — the
// conversions to the legacy sweep shapes need every remaining axis
// pinned (Slice first otherwise).
func (r *Result) singleValuedExcept(keep ...int) error {
	for ai, a := range r.Space.Axes() {
		kept := false
		for _, k := range keep {
			if ai == k {
				kept = true
				break
			}
		}
		if kept {
			continue
		}
		seen := -1
		for _, v := range r.Variants {
			if seen == -1 {
				seen = v[ai]
			} else if v[ai] != seen {
				return fmt.Errorf("dse: axis %q is not single-valued; Slice before Sweep", a.Name)
			}
		}
	}
	return nil
}

// Sweep2D converts a result over lanes×dv axes into the legacy
// Sweep2D grid, rows in lanes-axis order and columns in dv-axis order.
func (r *Result) Sweep2D(form perf.Form) (*Sweep2D, error) {
	li, ok := r.Space.AxisIndex(AxisLanes)
	if !ok {
		return nil, fmt.Errorf("dse: result has no lanes axis")
	}
	di, ok := r.Space.AxisIndex(AxisDV)
	if !ok {
		return nil, fmt.Errorf("dse: result has no dv axis")
	}
	if err := r.singleValuedExcept(li, di); err != nil {
		return nil, err
	}
	lanesAxis, dvAxis := r.Space.Axes()[li], r.Space.Axes()[di]
	sw := &Sweep2D{Form: form, Lanes: lanesAxis.Values, DVs: dvAxis.Values}
	grid := make(map[[2]int]*Point, len(r.Points))
	for i, v := range r.Variants {
		grid[[2]int{v[li], v[di]}] = r.Points[i]
	}
	for vi := range lanesAxis.Values {
		row := make([]Point, 0, len(dvAxis.Values))
		for di2 := range dvAxis.Values {
			p := grid[[2]int{vi, di2}]
			if p == nil {
				return nil, fmt.Errorf("dse: point lanes=%d dv=%d not evaluated",
					lanesAxis.Values[vi], dvAxis.Values[di2])
			}
			row = append(row, *p)
			if p.Fits && (sw.Best == nil || p.EKIT > sw.Best.EKIT) {
				best := *p
				sw.Best = &best
			}
		}
		sw.Points = append(sw.Points, row)
	}
	return sw, nil
}
