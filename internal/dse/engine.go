package dse

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/costmodel"
	"repro/internal/elab"
	"repro/internal/evalstore"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/pipesim"
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

// moduleCache memoises the device-independent work of a lane count:
// the variant-module build, its IR digest, its elaboration, its
// cost-model lowering (costmodel.Lower) and its simulated timing. It is
// its own type (rather than a field bundle on modelEval) so an
// evaluator that holds several per-device modelEvals shares one build,
// one elaboration, one lowering and one timing per lane count across
// all of them; each device only binds the shared, read-only lowering to
// its calibrated model.
type moduleCache struct {
	build     VariantBuilder
	builds    sync.Map // lanes int -> *onceCell[*tir.Module]
	designs   sync.Map // lanes int -> *onceCell[*elab.Design]
	digests   sync.Map // lanes int -> *onceCell[string]
	lowerings sync.Map // lanes int -> *onceCell[*costmodel.Lowered]
	timings   sync.Map // lanes int -> *onceCell[[2]int64]
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

// design elaborates the lane count's module once: the lowering and
// the simulator's compile both read the same design, so each datapath
// is checked and scheduled once per lane count.
func (mc *moduleCache) design(lanes int) (*elab.Design, error) {
	cell := loadCell[onceCell[*elab.Design]](&mc.designs, lanes)
	cell.once.Do(func() {
		m, err := mc.module(lanes)
		if err != nil {
			cell.err = err
			return
		}
		cell.val, cell.err = elab.Elaborate(m)
	})
	return cell.val, cell.err
}

// lowered lowers the lane count's design for the compiled cost model
// once; every device of the shelf binds the same lowering.
func (mc *moduleCache) lowered(lanes int) (*costmodel.Lowered, error) {
	cell := loadCell[onceCell[*costmodel.Lowered]](&mc.lowerings, lanes)
	cell.once.Do(func() {
		d, err := mc.design(lanes)
		if err != nil {
			cell.err = err
			return
		}
		cell.val, cell.err = costmodel.Lower(d)
	})
	return cell.val, cell.err
}

// irDigest returns the digest of a lane count's canonical IR text
// (evalstore.Fingerprint over Module.String) — the kernel-IR part of
// every estimate key — printed and hashed once per lane count, so the
// persistent-cache paths pay neither per point.
func (mc *moduleCache) irDigest(lanes int) (string, error) {
	cell := loadCell[onceCell[string]](&mc.digests, lanes)
	cell.once.Do(func() {
		m, err := mc.module(lanes)
		if err != nil {
			cell.err = err
			return
		}
		cell.val = evalstore.Fingerprint(m.String())
	})
	return cell.val, cell.err
}

// timing returns the simulated cycles and work-items of one
// kernel-instance of a lane count's variant, computed once from the
// compiled design's structure (pipesim.CompiledDesign.Timing): no data
// runs, and the design is dropped once timed. Exactly one worker
// computes each lane count; devices, fclk and form only re-price it.
func (mc *moduleCache) timing(lanes int) (cycles, items int64, err error) {
	cell := loadCell[onceCell[[2]int64]](&mc.timings, lanes)
	cell.once.Do(func() {
		if _, cell.err = mc.module(lanes); cell.err != nil {
			return
		}
		ed, err := mc.design(lanes)
		var d *pipesim.CompiledDesign
		if err == nil {
			d, err = pipesim.Compile(ed)
		}
		if err != nil {
			cell.err = fmt.Errorf("dse: compiling %d-lane variant: %w", lanes, err)
			return
		}
		cycles, items, err := d.Timing()
		switch {
		case err != nil:
			cell.err = fmt.Errorf("dse: simulating %d-lane variant: %w", lanes, err)
		case cycles <= 0 || items <= 0:
			cell.err = fmt.Errorf("dse: %d-lane variant simulated no work (%d cycles, %d items)",
				lanes, cycles, items)
		default:
			cell.val = [2]int64{cycles, items}
		}
	})
	return cell.val[0], cell.val[1], cell.err
}

// modelEval is the memoised cost-model core of one shelf entry: the
// shared module builds and lowerings bound to its model, and stream
// inventories, per lane count, and estimates with their Table I
// parameters per (lanes, dv).
// Every mode prices through it (the simulation-backed ones need the
// same model-side point for the resource bars, the walls and the
// calibration cross-check).
type modelEval struct {
	mdl  *costmodel.Model
	bw   *membw.Model
	mods *moduleCache
	w    perf.Workload
	form perf.Form

	// store is the optional persistent tier: estimates are read through
	// it (content-keyed by kernel IR, dv and target) and written back on
	// recompute. nil keeps the evaluator purely in-memory.
	store *evalstore.Store
	// targetDigest is the Fingerprint of the target description, the
	// target part of every estimate key, hashed once (store only).
	targetDigest string
	// estimateFn is a test seam replacing the estimator: the warm==cold
	// tests count recomputations through it and the engine-level
	// differentials inject the tree-walk oracle. nil selects the
	// compiled program.
	estimateFn func(d *elab.Design, dv int) (*costmodel.Estimate, error)

	ests        sync.Map // estKey(lanes, dv) -> *estCell
	compiled    sync.Map // lanes int -> *onceCell[*costmodel.CompiledModel]
	inventories sync.Map // lanes int -> *onceCell[*perf.Inventory]
}

// estCell is the memo cell of one (lanes, dv): the estimate and the
// Table I parameters extracted from it, settled together under one
// Once. Every point of the cell — the form and fclk axes — prices the
// same Params, so they are priced once per cell, whether the estimate
// was computed or read from the store.
type estCell struct {
	once sync.Once
	est  *costmodel.Estimate
	par  perf.Params
	err  error
}

// newModelEval wires a modelEval to a module cache the caller shares
// (every shelf entry's modelEval builds each lane count once over one
// cache, which also holds the lane count's simulated timing).
func newModelEval(mdl *costmodel.Model, bw *membw.Model, mods *moduleCache,
	w perf.Workload, form perf.Form, store *evalstore.Store) *modelEval {
	me := &modelEval{mdl: mdl, bw: bw, mods: mods, w: w, form: form, store: store}
	if store != nil {
		me.targetDigest = evalstore.Fingerprint(evalstore.TargetDesc(mdl.Target))
	}
	return me
}

// compiledModel binds the lane count's shared lowering to the device's
// model exactly once; every dv of the lane count evaluates the same
// flat program.
func (me *modelEval) compiledModel(lanes int) (*costmodel.CompiledModel, error) {
	cell := loadCell[onceCell[*costmodel.CompiledModel]](&me.compiled, lanes)
	cell.once.Do(func() {
		l, err := me.mods.lowered(lanes)
		if err != nil {
			cell.err = err
			return
		}
		cell.val = me.mdl.Bind(l)
	})
	return cell.val, cell.err
}

// inventory returns the stream inventory of the lane count's module
// against the device's bandwidth model, taken once: every dv of the
// lane count prices its estimate through it. The estimate carries the
// module and its lane count, so the inventory walks no call hierarchy
// of its own.
func (me *modelEval) inventory(lanes int, est *costmodel.Estimate) *perf.Inventory {
	cell := loadCell[onceCell[*perf.Inventory]](&me.inventories, lanes)
	cell.once.Do(func() { cell.val = perf.NewInventory(est.Module, est.Lanes, me.bw) })
	return cell.val
}

// module builds the lanes-axis variant once per lane count.
func (me *modelEval) module(lanes int) (*tir.Module, error) {
	return me.mods.module(lanes)
}

// estKey packs a (lanes, dv) pair into the estimate memo's key: one
// integer hashes faster than a boxed pair. A value outside int32 is an
// error naming its axis, so two pairs never share a cell.
func estKey(lanes, dv int) (uint64, error) {
	if lanes != int(int32(lanes)) {
		return 0, fmt.Errorf("dse: %s value %d does not fit in 32 bits", AxisLanes, lanes)
	}
	if dv != int(int32(dv)) {
		return 0, fmt.Errorf("dse: %s value %d does not fit in 32 bits", AxisDV, dv)
	}
	return uint64(uint32(lanes))<<32 | uint64(uint32(dv)), nil
}

// params returns the (lanes, dv) memo cell under its key (estKey),
// settling it on first use: the estimate, then its Table I parameters —
// perf.Extract, with the stream inventory shared by the lane count. An
// error from either step is memoised with the cell, so every point of
// the cell reports the same one.
func (me *modelEval) params(key uint64, lanes, dv int) *estCell {
	c := loadCell[estCell](&me.ests, key)
	c.once.Do(func() {
		if c.est, c.err = me.estimate(lanes, dv); c.err != nil {
			return
		}
		inv := me.inventory(lanes, c.est)
		if c.par, c.err = inv.Params(c.est, me.w); c.err != nil {
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
		ir, err := me.mods.irDigest(lanes)
		if err != nil {
			return nil, err
		}
		key = evalstore.EstimateKeyOf(ir, dv, me.targetDigest)
		if est, ok := evalstore.LoadEstimate(me.store, key, m, me.mdl.Target); ok {
			return est, nil
		}
	}
	estimate := me.estimateFn
	if estimate == nil {
		estimate = func(*elab.Design, int) (*costmodel.Estimate, error) {
			cm, err := me.compiledModel(lanes)
			if err != nil {
				return nil, err
			}
			return cm.EstimateVectorised(dv)
		}
	}
	d, err := me.mods.design(lanes)
	var est *costmodel.Estimate
	if err == nil {
		est, err = estimate(d, dv)
	}
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
	lanes, dv := b.value(v, b.lanes, 1), b.value(v, b.dv, 1)
	fclkHz, err := b.fclkHz(v)
	if err != nil {
		return nil, err
	}
	key, err := estKey(lanes, dv)
	if err != nil {
		return nil, err
	}
	c := me.params(key, lanes, dv)
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
		Fits: est.Fits(), Limiter: bd.Limiter}
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

	// cells is the per-variant memo keyed by Space.Index (celltable.go),
	// sized on first use so the zero-value Engine still works. String
	// keys (Space.Key) are never touched per evaluation — they remain
	// the cross-run identity for reports and the evalstore.
	cellsOnce sync.Once
	cells     cellTable
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
	e.cellsOnce.Do(func() { e.cells.init(e.Space.Size()) })
	return &e.cells
}

// evalOne evaluates a single variant through the memo cache and
// returns its point, or nil when the evaluation failed: the error stays
// in the variant's cell (failure reads it back).
func (e *Engine) evalOne(v Variant) *Point {
	cell := e.table().cell(e.Space.Index(v))
	cell.once.Do(func() { cell.val, cell.err = e.Eval(e.Space, v) })
	if cell.err != nil {
		return nil
	}
	return cell.val
}

// failure returns the memoised error of an evaluated variant.
func (e *Engine) failure(v Variant) error {
	return e.table().cell(e.Space.Index(v)).err
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
	h := e.startHelpers(min(e.Workers, len(vs)) - 1)
	defer h.stop()
	points := e.runWave(h, vs)
	for i, p := range points {
		if p == nil {
			if err := e.failure(vs[i]); err != nil {
				return nil, err
			}
		}
	}
	return points, nil
}

// helpers are the evaluation goroutines of one Engine.Search (or one
// EvalAll call): started once, parked between waves, and ended by stop
// on every return path of their owner. The owner works each wave
// alongside them, so n helpers give n+1 workers. A nil *helpers is
// none: every wave runs on the owner alone.
type helpers struct {
	n    int
	work chan *wave
	quit chan struct{}
	wg   sync.WaitGroup
}

// startHelpers starts n helpers for the engine; n <= 0 starts nothing.
func (e *Engine) startHelpers(n int) *helpers {
	if n <= 0 {
		return nil
	}
	h := &helpers{n: n, work: make(chan *wave), quit: make(chan struct{})}
	h.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer h.wg.Done()
			for {
				select {
				case w := <-h.work:
					e.work(w)
				case <-h.quit:
					return
				}
			}
		}()
	}
	return h
}

// stop ends the helpers and waits until each has returned.
func (h *helpers) stop() {
	if h == nil {
		return
	}
	close(h.quit)
	h.wg.Wait()
}

// wave is one batch of variants under evaluation. Its workers — the
// owner and the helpers it woke — claim chunked index ranges off next,
// and each variant's point lands at its input index in points, so the
// result is the same whichever worker claims which chunk. left counts
// the variants not yet settled; the worker that settles the last one
// closes done, which exists only when helpers were woken.
type wave struct {
	vs     []Variant
	points []*Point
	chunk  int
	next   atomic.Int64
	left   atomic.Int64
	done   chan struct{}
}

// runWave evaluates vs as one wave on the caller and as many of h's
// helpers as the wave can use, and returns the points in input order
// once every variant has settled, nil where an evaluation failed (its
// error stays in the variant's memo cell). Workers claim chunks off one
// atomic counter — one contended add per chunk instead of one channel
// send per variant, which at compiled-model evaluation speeds would
// otherwise dominate the wall clock.
func (e *Engine) runWave(h *helpers, vs []Variant) []*Point {
	w := &wave{vs: vs, points: make([]*Point, len(vs))}
	wake := 0
	if h != nil && len(vs) > 1 {
		wake = min(h.n, len(vs)-1)
	}
	w.chunk = min(max(len(vs)/((wake+1)*4), 1), 256)
	w.left.Store(int64(len(vs)))
	if wake > 0 {
		w.done = make(chan struct{})
	}
	// A send waits at most for a helper to finish its claim loop on the
	// previous, fully settled wave: helpers exit only on stop, which
	// the owner calls after its last wave.
	for i := 0; i < wake; i++ {
		h.work <- w
	}
	e.work(w)
	if w.done != nil {
		<-w.done
	}
	return w.points
}

// work claims chunks of w until none are left, evaluating each
// variant through the memo into its point slot. A helper that wakes
// after the last chunk was claimed returns at once: it never waits on
// the wave and never touches a later one.
func (e *Engine) work(w *wave) {
	n := len(w.vs)
	for {
		hi := int(w.next.Add(int64(w.chunk)))
		lo := hi - w.chunk
		if lo >= n {
			return
		}
		hi = min(hi, n)
		for i := lo; i < hi; i++ {
			w.points[i] = e.evalOne(w.vs[i])
		}
		if w.left.Add(int64(lo-hi)) == 0 && w.done != nil {
			close(w.done)
		}
	}
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
// matching the legacy sweep's strict comparison; the search core keeps
// the same best as it commits (Search.commit).
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
	lanesAxis := r.Space.Axes()[li]
	sw := &Sweep{Form: form, Lanes: lanesAxis.Values, ComputeWall: w.Compute, HostWall: w.Host, DRAMWall: w.DRAM}
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

// singleValuedExcept errors when any axis other than keep takes more
// than one value across the result's variants — the conversion to the
// legacy sweep shape needs every remaining axis pinned (Slice first
// otherwise).
func (r *Result) singleValuedExcept(keep int) error {
	for ai, a := range r.Space.Axes() {
		if ai == keep {
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
