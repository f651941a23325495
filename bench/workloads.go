package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/evalstore"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/report"
	"repro/internal/tir"
)

// scale sizes the workloads: full is the benchmark, small keeps every
// shape at test size.
type scale struct {
	maxLanes, maxDV      int // lanes and dv axes run 1..max
	modelFclk, shelfFclk int // seeded fclk values of model-sweep and shelf-search
	simKM                int // sor planes simulated by sim-sweep (96096 is Fig 15's 14.4M work-items)
	simLanes             int
	searchSeeds, budget  int // per strategy, and evaluations per search
	setupReps            int
}

var scales = map[string]scale{
	"full":  {maxLanes: 16, maxDV: 16, modelFclk: 400, shelfFclk: 1000, simKM: 96096, simLanes: 8, searchSeeds: 8, budget: 2000, setupReps: 3},
	"small": {maxLanes: 4, maxDV: 4, modelFclk: 4, shelfFclk: 10, simKM: 1456, simLanes: 4, searchSeeds: 2, budget: 100, setupReps: 1},
}

// storeMode is how a workload's runs use the persistent evaluation
// store.
type storeMode int

const (
	noStore storeMode = iota
	// coldStore: every run explores into a fresh store that holds only
	// the calibrated-model records.
	coldStore
	// warmStore: every run explores against a store a cold run
	// populated.
	warmStore
)

// workload is one benchmark input: the targets its set-up calibrates,
// how its runs use the store, and the explorations of one run.
type workload struct {
	name  string
	shelf []string
	store storeMode
	// plan draws the workload's seeded inputs and builds the
	// explorations of one run over the set-up's models.
	plan func(b *bench) ([]job, error)
	// render prints what a user of the run reads.
	render func(rs []*dse.Result) (string, error)
}

// job is one exploration of a run. eval builds its evaluator and is
// called inside the timed run: every tytradse call pays for it.
type job struct {
	space    *dse.Space
	eval     func(st *evalstore.Store, tr *tracer) (dse.Evaluator, error)
	strategy dse.Strategy
	opts     dse.SearchOptions
}

var (
	eduShelf   = []string{"stratix-v-gsd8-edu"}
	fig15Shelf = []string{"stratix-v-gsd8-edu", "stratix-v-gsd8", "virtex-7-690t"}
)

// workloads in the order BENCHMARK.json lists them.
var workloads = []*workload{
	{name: "model-sweep", shelf: eduShelf, plan: planModelSweep, render: renderLaneSweep},
	{name: "sim-sweep", shelf: eduShelf, plan: planSimSweep, render: renderSimSweep},
	{name: "store-cold", shelf: fig15Shelf, store: coldStore, plan: planStore, render: renderShelf},
	{name: "store-warm", shelf: fig15Shelf, store: warmStore, plan: planStore, render: renderShelf},
	{name: "shelf-search", shelf: fig15Shelf, plan: planShelfSearch, render: renderShelf},
}

// workloadNKI is the kernel-instance count every exploration prices
// (tytradse's -nki default).
var workloadNKI = perf.Workload{NKI: 10}

// family is a kernel's lane-parameterised variant builder, with the
// NDRange size that picks its reshape-legal lane counts. These are the
// variant families tytradse -kernel explores.
type family struct {
	build dse.VariantBuilder
	ngs   int64
}

// fig15KM is the sor plane count of Fig 15: 14.4M work-items.
var fig15KM = experiments.Fig15Spec(1).KM

func sorFamily(km int) family {
	spec := experiments.Fig15Spec(1)
	spec.KM = km
	return family{ngs: spec.GlobalSize(), build: func(lanes int) (*tir.Module, error) {
		s := spec
		s.Lanes = lanes
		return s.Module()
	}}
}

func families() []family {
	hotspot := kernels.HotspotSpec{Rows: 384, Cols: 682, Lanes: 1}
	lavamd := kernels.LavaMDSpec{Pairs: 720720, Lanes: 1}
	return []family{
		sorFamily(fig15KM),
		{ngs: hotspot.GlobalSize(), build: func(lanes int) (*tir.Module, error) {
			s := hotspot
			s.Lanes = lanes
			return s.Module()
		}},
		{ngs: lavamd.GlobalSize(), build: func(lanes int) (*tir.Module, error) {
			s := lavamd
			s.Lanes = lanes
			return s.Module()
		}},
	}
}

type models struct {
	mdl *costmodel.Model
	bw  *membw.Model
}

// bench is one workload's state within an invocation.
type bench struct {
	w       *workload
	sc      scale
	rng     *rand.Rand // seeded by --seed; draws only fclk values, search seeds and the sim input seed
	workers int
	dir     string // scratch directory inside the checkout
	tally   tally

	shelf  []*device.Target
	models map[string]models // per device name, from the last set-up
	cache  *dse.ModelCache   // the last set-up's calibrated cache, when it calibrated
	// seedDir is the store a run starts from: the model records alone
	// (store-cold), or the populated store (store-warm).
	seedDir string
	jobs    []job
}

// fclkValues draws n distinct clock frequencies (MHz) from [100, 100+2n).
func (b *bench) fclkValues(n int) []int {
	vals := b.rng.Perm(2 * n)[:n]
	for i := range vals {
		vals[i] += 100
	}
	sort.Ints(vals)
	return vals
}

func planModelSweep(b *bench) ([]job, error) {
	space, err := dse.NewSpace(
		dse.LanesAxis(dse.LaneCounts(b.sc.maxLanes)),
		dse.DVAxis(dse.LaneCounts(b.sc.maxDV)),
		dse.FormAxis(perf.FormA, perf.FormB),
		dse.FclkAxis(b.fclkValues(b.sc.modelFclk)))
	if err != nil {
		return nil, err
	}
	m, build := b.models[b.shelf[0].Name], sorFamily(fig15KM).build
	return []job{{space: space, strategy: dse.Exhaustive{},
		eval: func(_ *evalstore.Store, tr *tracer) (dse.Evaluator, error) {
			return modelEvaluator(m.mdl, m.bw, tr.builder(build), workloadNKI, perf.FormB), nil
		}}}, nil
}

func planSimSweep(b *bench) ([]job, error) {
	fam := sorFamily(b.sc.simKM)
	space, err := dse.NewSpace(dse.LanesAxis(dse.DivisorLaneCounts(fam.ngs, b.sc.simLanes)))
	if err != nil {
		return nil, err
	}
	m, seed := b.models[b.shelf[0].Name], b.rng.Int63n(1<<31)+1
	return []job{{space: space, strategy: dse.Exhaustive{},
		eval: func(_ *evalstore.Store, tr *tracer) (dse.Evaluator, error) {
			// Inputs is set on untraced runs too, so both take the same path.
			cfg := dse.SimConfig{Seed: seed, Inputs: tr.simInputs(dse.SimInputs)}
			return simEvaluator(m.mdl, m.bw, tr.builder(fam.build), workloadNKI, perf.FormB, cfg), nil
		}}}, nil
}

func planStore(b *bench) ([]job, error) {
	var jobs []job
	for _, fam := range families() {
		space, err := dse.NewSpace(
			dse.LanesAxis(dse.DivisorLaneCounts(fam.ngs, b.sc.maxLanes)),
			dse.DVAxis(dse.LaneCounts(b.sc.maxDV)),
			dse.DeviceAxis(b.shelf...))
		if err != nil {
			return nil, err
		}
		build := fam.build
		jobs = append(jobs, job{space: space, strategy: dse.Exhaustive{},
			eval: func(st *evalstore.Store, tr *tracer) (dse.Evaluator, error) {
				return storeShelfEvaluator(b.shelf, tr.builder(build), workloadNKI, perf.FormB, st)
			}})
	}
	return jobs, nil
}

func planShelfSearch(b *bench) ([]job, error) {
	space, err := dse.NewSpace(
		dse.LanesAxis(dse.LaneCounts(b.sc.maxLanes)),
		dse.DVAxis(dse.LaneCounts(b.sc.maxDV)),
		dse.FormAxis(perf.FormA, perf.FormB),
		dse.FclkAxis(b.fclkValues(b.sc.shelfFclk)),
		dse.DeviceAxis(b.shelf...))
	if err != nil {
		return nil, err
	}
	build := sorFamily(fig15KM).build
	eval := func(_ *evalstore.Store, tr *tracer) (dse.Evaluator, error) {
		return cachedShelfEvaluator(b.shelf, tr.builder(build), workloadNKI, perf.FormB, b.cache)
	}
	var jobs []job
	for i := 0; i < b.sc.searchSeeds; i++ {
		opts := dse.SearchOptions{Seed: b.rng.Int63n(1<<31) + 1, Budget: dse.Budget{MaxEvals: b.sc.budget}}
		jobs = append(jobs,
			job{space: space, eval: eval, strategy: dse.HillClimb{}, opts: opts},
			job{space: space, eval: eval, strategy: dse.Anneal{}, opts: opts})
	}
	return jobs, nil
}

// renderLaneSweep prints the Fig 15 lane sweep through the best point
// (its dv, form and fclk), with the walls and the tuning advice.
func renderLaneSweep(rs []*dse.Result) (string, error) {
	var out strings.Builder
	for _, r := range rs {
		out.WriteString(report.SearchSummary(r))
		if r.Best == nil {
			out.WriteString("no variant fits the device\n")
			continue
		}
		slice := r
		for _, axis := range []string{dse.AxisDV, dse.AxisForm, dse.AxisFclk} {
			val, _ := r.Space.Value(r.BestVariant, axis)
			var err error
			if slice, err = slice.Slice(axis, val); err != nil {
				return "", err
			}
		}
		form := perf.Form(r.Space.ValueDefault(r.BestVariant, dse.AxisForm, int(perf.FormB)))
		sw, err := slice.Sweep(form)
		if err != nil {
			return "", err
		}
		out.WriteString(report.SweepTable(fmt.Sprintf("lane sweep at %s (walls: host=%d dram=%d compute=%d)",
			r.Space.Describe(r.BestVariant), sw.HostWall, sw.DRAMWall, sw.ComputeWall), sw).String())
		out.WriteString(dse.Advise(sw).String())
	}
	return out.String(), nil
}

// renderSimSweep prints what tytradse -eval sim prints: the sweep, the
// model-versus-simulator calibration and the advice.
func renderSimSweep(rs []*dse.Result) (string, error) {
	var out strings.Builder
	for _, r := range rs {
		sw, err := r.Sweep(perf.FormB)
		if err != nil {
			return "", err
		}
		out.WriteString(report.SweepTable(fmt.Sprintf("sor sweep scored by simulation (walls: host=%d dram=%d compute=%d)",
			sw.HostWall, sw.DRAMWall, sw.ComputeWall), sw).String())
		out.WriteString(report.CalibrationTable("model CPKI vs simulated cycles", r, 0).String())
		out.WriteString(dse.Advise(sw).String())
	}
	return out.String(), nil
}

// renderShelf prints a shelf exploration: the search trajectory and
// provenance, and the per-device best designs and walls.
func renderShelf(rs []*dse.Result) (string, error) {
	var out strings.Builder
	for _, r := range rs {
		out.WriteString(report.SearchTable(fmt.Sprintf("search trajectory (%s)", r.Strategy), r).String())
		out.WriteString(report.SearchSummary(r))
		t, err := report.DeviceSummaryTable("per-device best", r)
		if err != nil {
			return "", err
		}
		out.WriteString(t.String())
	}
	return out.String(), nil
}

// checkFig15 pins the set-up's models to Fig 15: the lanes-only sor
// sweep on the scaled Stratix V under form B selects 6 lanes, with the
// compute wall at 7, the DRAM wall at 15 and no host wall.
func (b *bench) checkFig15() error {
	m, ok := b.models["stratix-v-gsd8-edu"]
	if !ok {
		return fmt.Errorf("no stratix-v-gsd8-edu models")
	}
	space, err := dse.NewSpace(dse.LanesAxis(dse.LaneCounts(16)))
	if err != nil {
		return err
	}
	build := sorFamily(fig15KM).build
	res, err := search(space, modelEvaluator(m.mdl, m.bw, build, workloadNKI, perf.FormB), 1,
		dse.Exhaustive{}, dse.SearchOptions{})
	if err != nil {
		return err
	}
	best := 0
	if res.Best != nil {
		best = res.Best.Lanes
	}
	if best != 6 || res.Walls != (dse.Walls{Compute: 7, DRAM: 15}) {
		return fmt.Errorf("best %d lanes, walls compute=%d dram=%d host=%d; Fig 15 has 6, 7, 15, 0",
			best, res.Walls.Compute, res.Walls.DRAM, res.Walls.Host)
	}
	return nil
}

// cpkiTolPct is the model/simulator drift the repository tolerates
// (report.DefaultCalibrationTol), in percent.
const cpkiTolPct = report.DefaultCalibrationTol * 100

// cpkiErrPct is the paper's accuracy claim on a simulated run: the mean
// |model CPKI − simulated cycles| / simulated cycles, in percent. ok is
// false when the run simulated nothing.
func cpkiErrPct(o *runOut) (pct float64, ok bool) {
	var sum float64
	n := 0
	for _, r := range o.results {
		for _, p := range r.Points {
			if p.SimCycles > 0 {
				sum += math.Abs(float64(p.Est.CPKI(p.Par.NGS)-p.SimCycles)) / float64(p.SimCycles)
				n++
			}
		}
	}
	return 100 * sum / float64(n), n > 0
}

// setUp performs the workload's one-time set-up once and returns its
// wall time: calibration per target through a model cache (as the
// shelf evaluators calibrate), plus writing the model records for
// store-cold, or instead reading them back for store-warm.
func (b *bench) setUp(tr *tracer) (float64, error) {
	dir := b.seedDir
	if b.w.store == coldStore {
		var err error
		if dir, err = os.MkdirTemp(b.dir, "models-"); err != nil {
			return 0, err
		}
	}
	start := now()
	root := tr.begin("bench.setup")
	var st *evalstore.Store
	if dir != "" {
		var err error
		if st, err = evalstore.Open(dir); err != nil {
			return 0, err
		}
	}
	ms := map[string]models{}
	var cache *dse.ModelCache
	for _, t := range b.shelf {
		if b.w.store == warmStore {
			id := tr.begin("evalstore.load_models")
			mdl, bw, ok := evalstore.LoadModels(st, t)
			tr.end(id, 1)
			if !ok {
				return 0, fmt.Errorf("no model record for %s in %s", t.Name, dir)
			}
			ms[t.Name] = models{mdl, bw}
			continue
		}
		if cache == nil {
			cache = dse.NewModelCache()
		}
		id := tr.begin("dse.models")
		mdl, bw, err := cache.Models(t)
		tr.end(id, 1)
		if err != nil {
			return 0, err
		}
		ms[t.Name] = models{mdl, bw}
		if st != nil {
			id := tr.begin("evalstore.save_models")
			err := evalstore.SaveModels(st, t, mdl, bw)
			tr.end(id, 1)
			if err != nil {
				return 0, err
			}
		}
	}
	tr.end(root, 1)
	secs := now().Sub(start).Seconds()
	b.models, b.cache = ms, cache
	if b.w.store == coldStore {
		b.seedDir = dir
	}
	return secs, nil
}

// prepareWarm writes the model records store-warm's set-up reads back
// (untimed: in use, a cold run wrote them).
func (b *bench) prepareWarm() error {
	dir, err := os.MkdirTemp(b.dir, "warm-")
	if err != nil {
		return err
	}
	b.seedDir = dir
	st, err := evalstore.Open(dir)
	if err != nil {
		return err
	}
	cache := dse.NewModelCache()
	for _, t := range b.shelf {
		mdl, bw, err := cache.Models(t)
		if err != nil {
			return err
		}
		if err := evalstore.SaveModels(st, t, mdl, bw); err != nil {
			return err
		}
	}
	return nil
}

// runDir prepares, untimed, the store a run starts from: a fresh copy of
// the model records for store-cold, the populated store for store-warm,
// none otherwise.
func (b *bench) runDir() (string, error) {
	switch b.w.store {
	case coldStore:
		dir, err := os.MkdirTemp(b.dir, "cold-")
		if err != nil {
			return "", err
		}
		entries, err := os.ReadDir(b.seedDir)
		if err != nil {
			return "", err
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(b.seedDir, e.Name()))
			if err != nil {
				return "", err
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
				return "", err
			}
		}
		return dir, nil
	case warmStore:
		return b.seedDir, nil
	}
	return "", nil
}

// runOut is one run's outcome.
type runOut struct {
	secs    float64
	evals   int
	results []*dse.Result
	digest  string // of the points, walls, best and provenance
	report  string // hash of the rendered report
	dir     string // the store the run explored into, if any
}

// run performs one run of the workload: fresh evaluators and engines,
// every exploration, and the report. Only that is timed; preparing the
// store directory is not.
func (b *bench) run(workers int, tr *tracer) (*runOut, error) {
	dir, err := b.runDir()
	if err != nil {
		return nil, err
	}
	out := &runOut{dir: dir}
	runtime.GC()
	start := now()
	root := tr.begin("bench.run")
	var st *evalstore.Store
	if dir != "" {
		if st, err = evalstore.Open(dir); err != nil {
			return out, err
		}
	}
	for _, j := range b.jobs {
		ev, err := j.eval(st, tr)
		if err != nil {
			return out, err
		}
		id := tr.begin("dse.search")
		res, err := search(j.space, tr.evaluator(ev), workers, j.strategy, j.opts)
		tr.end(id, 1)
		if err != nil {
			return out, err
		}
		out.results = append(out.results, res)
	}
	id := tr.begin("report.render")
	text, err := b.w.render(out.results)
	tr.end(id, 1)
	if err != nil {
		return out, err
	}
	tr.end(root, 1)
	out.secs = now().Sub(start).Seconds()
	for _, r := range out.results {
		out.evals += r.Evals
	}
	out.digest = pointsDigest(out.results)
	sum := sha256.Sum256([]byte(text))
	out.report = hex.EncodeToString(sum[:])
	return out, nil
}

// pointsDigest hashes everything a user reads off the results: every
// evaluated variant's position and point, the walls, the best and the
// search provenance.
func pointsDigest(rs []*dse.Result) string {
	h := sha256.New()
	var buf []byte
	u := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	f := func(v float64) { u(int64(math.Float64bits(v))) }
	for _, r := range rs {
		u(int64(r.Evals))
		u(int64(r.Walls.Compute))
		u(int64(r.Walls.Host))
		u(int64(r.Walls.DRAM))
		buf = append(buf, r.Stop...)
		if r.Best != nil {
			u(int64(r.Space.Index(r.BestVariant)))
		}
		for i, p := range r.Points {
			u(int64(r.Space.Index(r.Variants[i])))
			buf = append(buf, p.Device...)
			u(int64(p.Lanes))
			f(p.EKIT)
			f(p.ModelEKIT)
			f(p.SimEKIT)
			u(p.SimCycles)
			u(p.SimItems)
			for _, x := range [...]float64{p.UtilALUT, p.UtilReg, p.UtilBRAM, p.UtilDSP, p.UtilGMemBW, p.UtilHostBW, p.Par.FD} {
				f(x)
			}
			used := p.Est.Used
			for _, x := range [...]int{used.ALUTs, used.Regs, used.BRAM, used.DSPs, p.Est.KPD, p.Est.DV} {
				u(int64(x))
			}
			if p.Fits {
				u(1)
			} else {
				u(0)
			}
			if len(buf) > 1<<16 {
				h.Write(buf)
				buf = buf[:0]
			}
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}
