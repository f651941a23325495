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
// -kernel names a built-in kernel from the kernels package's table
// (sor | hotspot | lavamd | srad), the list tytracc -kernel reads too.
// Each is explored at the NDRange the table gives it: sor over Fig 15's
// 15×10×96,096 grid, hotspot over 384×682, lavamd over 720,720 pairs
// and srad over its 128×229 Table II image. The lane axis holds every
// count up to -maxlanes that divides the NDRange.
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
// (internal/evalstore): each target's bandwidth benchmark table and the
// model estimates are written content-addressed into DIR and reused by
// later runs, which recalibrate only the cost model (microseconds per
// target). A warm run prints byte-identical output to the cold run
// that populated the cache; a damaged cache entry is silently
// recomputed and rewritten.
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

// options is the parsed flag set explore reads.
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
	kernel := fs.String("kernel", "sor",
		fmt.Sprintf("kernel family to explore (%s)", strings.Join(kernels.Names(), " | ")))
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
		"persistent evaluation cache directory: bandwidth benchmarks and model estimates are reused across runs (warm runs print byte-identical output)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jobs < 0 {
		return fmt.Errorf("-j %d: the worker count must be positive, or 0 for all CPUs", *jobs)
	}
	if *nki < 1 {
		return fmt.Errorf("-nki %d: a workload runs at least one kernel-instance", *nki)
	}
	if *budget < 0 {
		return fmt.Errorf("-budget %d: the evaluation budget must be positive, or 0 for unlimited", *budget)
	}
	// Every lane count builds a module that materialises each lane, so
	// the axis stops where the simulator and the HDL back end stop.
	if *maxLanes < 1 || *maxLanes > elab.MaxInstances {
		return fmt.Errorf("-maxlanes %d: the lane axis runs from 1 to the %d lanes a design may materialise",
			*maxLanes, elab.MaxInstances)
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

	names, multi := []string{*targetName}, false
	if *devices != "" {
		names, multi = strings.Split(*devices, ","), true
	}
	return explore(out, opt, names, multi)
}

// explore runs one exploration over the named targets. A single
// -target is a one-entry shelf with no device axis; a -devices shelf
// (multi) adds the device axis, and its output adds the per-device
// slices, the cross-device summary and the shelf-wide best.
func explore(out io.Writer, opt options, names []string, multi bool) error {
	shelf, err := device.Shelf(names...)
	if err != nil {
		return err
	}
	build, ngs, err := family(opt.kernel)
	if err != nil {
		return err
	}

	axes := []dse.Axis{dse.LanesAxis(dse.DivisorLaneCounts(ngs, opt.maxLanes))}
	if multi {
		fmt.Fprintf(out, "exploring across %d devices (models calibrated once per device)...\n", len(shelf))
		axes = append(axes, dse.DeviceAxis(shelf...))
	} else {
		// The line prints warm and cold alike: warm-cache output must
		// stay byte-identical to the cold run (the CI smoke byte-diffs
		// them).
		fmt.Fprintf(out, "calibrating models for %s...\n", shelf[0].Name)
	}
	space, err := dse.NewSpace(axes...)
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
		slice := res
		if multi {
			if slice, err = res.Slice(dse.AxisDevice, i); err != nil {
				return err
			}
		}
		sw, err := slice.Sweep(opt.form)
		if err != nil {
			return err
		}
		sweeps[i] = sw
		if multi && len(sw.Points) == 0 {
			// A pruning strategy may never reach a device; keep the
			// shelf order but say so instead of printing an empty
			// table.
			fmt.Fprintf(out, "%s: no variants evaluated (pruned)\n", tgt.Name)
			continue
		}
		printSweepBlock(out, opt, tgt.Name, sw)
	}
	if opt.mode == dse.EvalHybrid {
		cal := report.CalibrationTable("hybrid calibration: model CPKI vs simulated cycles per variant",
			res, 0)
		emitTable(out, opt.csv, cal)
	}
	if multi {
		summary, err := report.DeviceSummaryTable(
			fmt.Sprintf("cross-device summary: %s on %d devices (%s, scored by %s)",
				opt.kernel, len(shelf), opt.form, opt.mode), res)
		if err != nil {
			return err
		}
		emitTable(out, opt.csv, summary)
	}
	if line := report.FrontierLine(res); line != "" {
		fmt.Fprint(out, line)
	}
	if opt.showSearch() {
		emitTable(out, opt.csv, report.SearchTable(
			fmt.Sprintf("search trajectory (%s): best EKIT found vs evaluations spent", res.Strategy), res))
		fmt.Fprint(out, report.SearchSummary(res))
	}

	// The feedback path: what to transform next (§I's targeted tuning).
	if !multi {
		fmt.Fprint(out, dse.Advise(sweeps[0]))
		return nil
	}
	if res.Best == nil {
		fmt.Fprintln(out, dse.ShelfNoFit(sweeps))
		return nil
	}
	fmt.Fprintf(out, "best overall: %s with %d lanes (EKIT %.3g/s)\n",
		res.Best.Device, res.Best.Lanes, res.Best.EKIT)
	for i, tgt := range shelf {
		if tgt.Name == res.Best.Device {
			fmt.Fprint(out, dse.Advise(sweeps[i]))
		}
	}
	return nil
}

// printSweepBlock prints one device's sweep: table, best-variant
// lines, roofline. A -devices run prints it per shelf entry, which is
// what makes its per-device rows bit-identical to a -target run.
func printSweepBlock(out io.Writer, opt options, targetName string, sw *dse.Sweep) {
	tab := report.SweepTable(
		fmt.Sprintf("%s variant sweep on %s (%s, scored by %s; walls: host=%d dram=%d compute=%d)",
			opt.kernel, targetName, opt.form, opt.mode, sw.HostWall, sw.DRAMWall, sw.ComputeWall),
		sw)
	emitTable(out, opt.csv, tab)
	if sw.Best != nil {
		fmt.Fprintf(out, "best variant: %d lanes (EKIT %.3g/s, limited by %s)\n",
			sw.Best.Lanes, sw.Best.EKIT, sw.Best.Limiter)
		if opt.mode == dse.EvalSim {
			fmt.Fprintf(out, "scored by simulated cycles: %d cycles / %d items per instance (model predicted EKIT %.3g/s)\n",
				sw.Best.SimCycles, sw.Best.SimItems, sw.Best.ModelEKIT)
		}
		if pt, err := roofline.FromParams(sw.Best.Par, opt.form); err == nil {
			fmt.Fprintf(out, "roofline: %s\n", pt)
		}
	} else {
		fmt.Fprintln(out, sw.NoFit())
	}
}

func emitTable(out io.Writer, csv bool, t *report.Table) {
	if csv {
		fmt.Fprint(out, t.CSV())
	} else {
		fmt.Fprintln(out, t)
	}
}

// family returns the variant builder of a built-in kernel at the
// NDRange tytradse explores, and that NDRange's size, which picks the
// reshape-legal lane counts.
func family(kernel string) (dse.VariantBuilder, int64, error) {
	k, err := kernels.Lookup(kernel)
	if err != nil {
		return nil, 0, err
	}
	spec := k.Explore
	return func(lanes int) (*tir.Module, error) { return kernels.Variant(spec, lanes) }, spec.GlobalSize(), nil
}
