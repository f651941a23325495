// Command tytradse runs the design-space exploration of §VI-A: it
// generates the lane-count variant family of a built-in kernel (the
// reshapeTo transformations of §II), costs every variant through the
// parallel DSE engine, and prints the Fig 15-style sweep with the
// walls and the selected best design.
//
// Usage:
//
//	tytradse [-kernel sor] [-target stratix-v-gsd8-edu] [-maxlanes 16] [-form A|B|C] [-nki 10]
//	         [-strategy exhaustive|wall-pruned|pareto|hillclimb|anneal] [-budget N] [-seed N]
//	         [-eval model|sim|hybrid]
//	         [-j N] [-csv] [-devices name,name,...] [-cache DIR]
//
// The -strategy flag selects the exploration strategy from the dse
// strategy table (the flag help lists exactly what parses):
// "exhaustive" costs every variant, "wall-pruned" stops the lane
// sweep once a compute/host/DRAM wall of Fig 15 is crossed and
// throughput has saturated, "pareto" additionally reports the
// throughput-versus-utilisation frontier, and the adaptive
// "hillclimb" and "anneal" search the space under a budget instead of
// enumerating it. -budget caps the evaluations a search may charge
// and -seed keys its RNG: an adaptive run is deterministic for a
// fixed seed at any -j, and prints its trajectory and coverage under
// the sweep. -j sets the number of parallel evaluation workers (0 =
// all CPUs; a negative count is an error); the engine is
// deterministic, so every -j produces identical output.
//
// The -eval flag selects the variant scorer: "model" is the paper's
// EKIT cost model, "sim" scores every variant by the cycles of the
// cycle-accurate pipeline simulator (EKIT = FD / cycles), and
// "hybrid" ranks by the model while recording the simulated cycles,
// printing the per-variant model/sim calibration table under the
// sweep. Simulated cycles never depend on data, so both take them
// from the compiled design's structure (pipesim.CompiledDesign.Timing)
// without running the NDRange.
//
// -devices sweeps the variant family across a shelf of targets in one
// lanes×device engine run instead of a single -target: the cost and
// bandwidth models are calibrated once per device (lazily, as the
// strategy reaches it), each device's rows print exactly as the
// corresponding single-device run would print them, and a cross-device
// summary with the shelf-wide best design follows. Target names come
// from the device registry (device.Names); unknown names list the
// valid ones.
//
// -cache DIR attaches the persistent evaluation store
// (internal/evalstore): per-target calibrations and model estimates
// are written content-addressed into DIR and reused by later runs. A
// warm run prints byte-identical output to the cold run that populated
// the cache; a damaged cache entry is silently recomputed and
// rewritten.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/elab"
	"repro/internal/evalstore"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/perf"
	"repro/internal/report"
	"repro/internal/roofline"
	"repro/internal/tir"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tytradse:", err)
		os.Exit(1)
	}
}

// options is the parsed flag set shared by the single- and
// multi-device paths.
type options struct {
	kernel   string
	form     perf.Form
	mode     dse.EvalMode
	strategy dse.Strategy
	search   dse.SearchOptions
	nki      int64
	maxLanes int
	jobs     int
	csv      bool
	// cache supplies every target's models and carries the -cache
	// store, if any.
	cache *dse.ModelCache
}

// showSearch reports whether the run's search provenance (trajectory
// table + summary line) should be printed: always for an adaptive
// strategy, and whenever the user bounded the search.
func (o options) showSearch() bool {
	return dse.StrategyIsAdaptive(o.strategy.Name()) || o.search.Budget.MaxEvals > 0
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tytradse", flag.ContinueOnError)
	kernel := fs.String("kernel", "sor", "kernel family to explore (sor | hotspot | lavamd)")
	targetName := fs.String("target", "stratix-v-gsd8-edu",
		fmt.Sprintf("FPGA target (%s)", strings.Join(device.Names(), " | ")))
	devices := fs.String("devices", "",
		"comma-separated device shelf for a cross-device sweep (overrides -target)")
	maxLanes := fs.Int("maxlanes", 16, fmt.Sprintf("largest lane count to sweep (at most %d)", elab.MaxInstances))
	formName := fs.String("form", "B", "memory-execution form (A | B | C)")
	nki := fs.Int64("nki", 10, "kernel-instance repetitions")
	strategy := fs.String("strategy", "exhaustive",
		fmt.Sprintf("exploration strategy (%s) — %s",
			strings.Join(dse.StrategyNames(), " | "), dse.StrategyHelp()))
	budget := fs.Int("budget", 0, "max design-point evaluations the search may charge (0 = unlimited)")
	seed := fs.Int64("seed", 0, "search RNG seed for the adaptive strategies (0 = default seed 1)")
	evalName := fs.String("eval", "model", "variant scorer (model | sim | hybrid)")
	jobs := fs.Int("j", 0, "parallel evaluation workers (0 = all CPUs)")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	cacheDir := fs.String("cache", "",
		"persistent evaluation cache directory: calibrations and model estimates are reused across runs (warm runs print byte-identical output)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jobs < 0 {
		return fmt.Errorf("-j %d: the worker count must be positive, or 0 for all CPUs", *jobs)
	}
	// Every lane count builds a module that materialises each lane, so
	// the axis stops where the simulator and the HDL back end stop.
	if *maxLanes > elab.MaxInstances {
		return fmt.Errorf("-maxlanes %d: above the %d lanes a design may materialise", *maxLanes, elab.MaxInstances)
	}

	st, err := dse.ParseStrategy(*strategy)
	if err != nil {
		return err
	}
	mode, err := dse.ParseEvalMode(*evalName)
	if err != nil {
		return err
	}
	form, err := perf.ParseForm(*formName)
	if err != nil {
		return err
	}
	var store *evalstore.Store
	if *cacheDir != "" {
		if store, err = evalstore.Open(*cacheDir); err != nil {
			return err
		}
	}
	opt := options{kernel: *kernel, form: form, mode: mode, strategy: st,
		search: dse.SearchOptions{Budget: dse.Budget{MaxEvals: *budget}, Seed: *seed},
		nki:    *nki, maxLanes: *maxLanes, jobs: *jobs, csv: *csv,
		cache: dse.NewModelCacheStore(store)}

	if *devices != "" {
		return runDevices(out, opt, strings.Split(*devices, ","))
	}
	return runSingle(out, opt, *targetName)
}

// runSingle is the classic single-target exploration.
func runSingle(out io.Writer, opt options, targetName string) error {
	target, err := device.Lookup(targetName)
	if err != nil {
		return err
	}

	build, ngs, err := variantFamily(opt.kernel)
	if err != nil {
		return err
	}

	// The line prints warm and cold alike: warm-cache output must stay
	// byte-identical to the cold run (the CI smoke byte-diffs them).
	fmt.Fprintf(out, "calibrating models for %s...\n", target.Name)
	lanes := dse.DivisorLaneCounts(ngs, opt.maxLanes)
	space, err := dse.NewSpace(dse.LanesAxis(lanes))
	if err != nil {
		return err
	}
	res, err := core.Explore(opt.mode, []*device.Target{target}, opt.cache, build, space,
		perf.Workload{NKI: opt.nki}, opt.form, opt.strategy, opt.jobs, opt.search)
	if err != nil {
		return err
	}
	sw, err := res.Sweep(opt.form)
	if err != nil {
		return err
	}

	printSweepBlock(out, opt, target.Name, sw)
	if opt.mode == dse.EvalHybrid {
		cal := report.CalibrationTable("hybrid calibration: model CPKI vs simulated cycles per variant",
			res, 0)
		emitTable(out, opt.csv, cal)
	}
	if line := report.FrontierLine(res); line != "" {
		fmt.Fprint(out, line)
	}
	printSearchBlock(out, opt, res)
	// The feedback path: what to transform next (§I's targeted tuning).
	fmt.Fprint(out, dse.Advise(sw))
	return nil
}

// printSearchBlock appends the search trajectory and provenance for
// budgeted and adaptive runs.
func printSearchBlock(out io.Writer, opt options, res *dse.Result) {
	if !opt.showSearch() {
		return
	}
	emitTable(out, opt.csv, report.SearchTable(
		fmt.Sprintf("search trajectory (%s): best EKIT found vs evaluations spent", res.Strategy), res))
	fmt.Fprint(out, report.SearchSummary(res))
}

// runDevices is the cross-device exploration: one lanes×device engine
// run over the named shelf, printed as per-device sweeps (identical to
// the single-device output) plus the shelf-wide comparison.
func runDevices(out io.Writer, opt options, names []string) error {
	shelf, err := device.Shelf(names...)
	if err != nil {
		return err
	}
	build, ngs, err := variantFamily(opt.kernel)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "exploring across %d devices (models calibrated once per device)...\n", len(shelf))
	lanes := dse.DivisorLaneCounts(ngs, opt.maxLanes)
	space, err := dse.NewSpace(dse.LanesAxis(lanes), dse.DeviceAxis(shelf...))
	if err != nil {
		return err
	}
	res, err := core.Explore(opt.mode, shelf, opt.cache, build, space, perf.Workload{NKI: opt.nki},
		opt.form, opt.strategy, opt.jobs, opt.search)
	if err != nil {
		return err
	}

	sweeps := make([]*dse.Sweep, len(shelf))
	for i, tgt := range shelf {
		slice, err := res.Slice(dse.AxisDevice, i)
		if err != nil {
			return err
		}
		if len(slice.Points) == 0 {
			// A pruning strategy may never reach a device; keep the shelf
			// order but say so instead of printing an empty table.
			fmt.Fprintf(out, "%s: no variants evaluated (pruned)\n", tgt.Name)
			continue
		}
		sw, err := slice.Sweep(opt.form)
		if err != nil {
			return err
		}
		sweeps[i] = sw
		printSweepBlock(out, opt, tgt.Name, sw)
	}
	if opt.mode == dse.EvalHybrid {
		cal := report.CalibrationTable("hybrid calibration: model CPKI vs simulated cycles per variant",
			res, 0)
		emitTable(out, opt.csv, cal)
	}

	summary, err := report.DeviceSummaryTable(
		fmt.Sprintf("cross-device summary: %s on %d devices (%s, scored by %s)",
			opt.kernel, len(shelf), opt.form, opt.mode), res)
	if err != nil {
		return err
	}
	emitTable(out, opt.csv, summary)
	if line := report.FrontierLine(res); line != "" {
		fmt.Fprint(out, line)
	}
	printSearchBlock(out, opt, res)
	if res.Best != nil {
		fmt.Fprintf(out, "best overall: %s with %d lanes (EKIT %.3g/s)\n",
			res.Best.Device, res.Best.Lanes, res.Best.EKIT)
		for i, tgt := range shelf {
			if tgt.Name == res.Best.Device && sweeps[i] != nil {
				fmt.Fprint(out, dse.Advise(sweeps[i]))
			}
		}
	} else {
		fmt.Fprintln(out, "no variant fits any device on the shelf")
	}
	return nil
}

// printSweepBlock prints one device's sweep exactly as the
// single-target run prints it: table, best-variant lines, roofline.
// The cross-device path reuses it per shelf entry, which is what makes
// per-device rows bit-identical between the two paths.
func printSweepBlock(out io.Writer, opt options, targetName string, sw *dse.Sweep) {
	tab := report.SweepTable(
		fmt.Sprintf("%s variant sweep on %s (%s, scored by %s; walls: host=%d dram=%d compute=%d)",
			opt.kernel, targetName, opt.form, opt.mode, sw.HostWall, sw.DRAMWall, sw.ComputeWall),
		sw)
	emitTable(out, opt.csv, tab)
	if sw.Best != nil {
		fmt.Fprintf(out, "best variant: %d lanes (EKIT %.3g/s, limited by %s)\n",
			sw.Best.Lanes, sw.Best.EKIT, sw.Best.Breakdown.Limiter)
		if opt.mode == dse.EvalSim {
			fmt.Fprintf(out, "scored by simulated cycles: %d cycles / %d items per instance (model predicted EKIT %.3g/s)\n",
				sw.Best.SimCycles, sw.Best.SimItems, sw.Best.ModelEKIT)
		}
		if pt, err := roofline.FromParams(sw.Best.Par, opt.form); err == nil {
			fmt.Fprintf(out, "roofline: %s\n", pt)
		}
	} else {
		fmt.Fprintln(out, "no variant fits the device")
	}
}

func emitTable(out io.Writer, csv bool, t *report.Table) {
	if csv {
		fmt.Fprint(out, t.CSV())
	} else {
		fmt.Fprintln(out, t)
	}
}

// variantFamily returns the lane-parameterised builder for a kernel and
// the NDRange size used to pick reshape-legal lane counts.
func variantFamily(kernel string) (dse.VariantBuilder, int64, error) {
	switch kernel {
	case "sor":
		spec := experiments.Fig15Spec(1)
		return func(lanes int) (*tir.Module, error) {
			s := spec
			s.Lanes = lanes
			return s.Module()
		}, spec.GlobalSize(), nil
	case "hotspot":
		spec := kernels.HotspotSpec{Rows: 384, Cols: 682, Lanes: 1}
		return func(lanes int) (*tir.Module, error) {
			s := spec
			s.Lanes = lanes
			return s.Module()
		}, spec.GlobalSize(), nil
	case "lavamd":
		spec := kernels.LavaMDSpec{Pairs: 720720, Lanes: 1}
		return func(lanes int) (*tir.Module, error) {
			s := spec
			s.Lanes = lanes
			return s.Module()
		}, spec.GlobalSize(), nil
	}
	return nil, 0, fmt.Errorf("unknown kernel %q", kernel)
}
