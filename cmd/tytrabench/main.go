// Command tytrabench regenerates the paper's tables and figures (the
// per-experiment index of DESIGN.md):
//
//	tytrabench -exp fig9     resource cost curves (Fig 9)
//	tytrabench -exp fig10    sustained stream bandwidth (Fig 10)
//	tytrabench -exp fig15    SOR variant sweep with walls (Fig 15)
//	tytrabench -exp fig15h   Fig 15 in hybrid mode: model vs simulated cycles
//	tytrabench -exp fig15d   Fig 15 replayed per device across the shelf
//	tytrabench -exp table2   estimated vs actual accuracy (Table II)
//	tytrabench -exp fig17    case-study runtime (Fig 17)
//	tytrabench -exp fig18    case-study energy (Fig 18)
//	tytrabench -exp speed    estimator latency (§VI-A)
//	tytrabench -exp strat    DSE strategy comparison (best found vs evals spent)
//	tytrabench -exp all      everything, in paper order
//
// With -json the tool instead emits a machine-readable benchmark
// report; -report selects which one. "pipesim" (the default) times the
// golden kernels through the interpreter oracle, the compile-per-call
// executor and a compile-once design; "dse-sim" times one cold
// variant evaluation per DSE scorer (model, sim, hybrid); "dse-model"
// times the compiled cost model against the tree-walk oracle per
// corpus kernel plus the engine's 100k-point synthetic sweep
// throughput; "dse-strat" records the strategy comparison —
// deterministic, so the committed baseline only changes when search
// behaviour does:
//
//	tytrabench -json > BENCH_PIPESIM.json
//	tytrabench -json -report dse-sim > BENCH_DSE_SIM.json
//	tytrabench -json -report dse-model > BENCH_DSE_MODEL.json
//	tytrabench -json -report dse-strat > BENCH_DSE_STRAT.json
//
// -cpuprofile and -memprofile wrap any of the above in the standard
// pprof collectors, for chasing simulator hot spots:
//
//	tytrabench -json -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tytrabench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tytrabench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: fig9|fig10|fig15|fig15h|fig15d|table2|fig17|fig18|speed|strat|all")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	full := fs.Bool("full", true, "use the paper-scale workloads (slower)")
	jsonOut := fs.Bool("json", false, "emit a benchmark report as JSON (see -report)")
	jsonReport := fs.String("report", "pipesim", "which -json report: pipesim (BENCH_PIPESIM.json) | dse-sim (BENCH_DSE_SIM.json) | dse-model (BENCH_DSE_MODEL.json) | dse-strat (BENCH_DSE_STRAT.json)")
	benchTime := fs.Duration("benchtime", 0, "per-measurement time budget for -json (0 = default)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected run to this file (inspect with `go tool pprof`)")
	memProfile := fs.String("memprofile", "", "write a heap profile (taken after the run, post-GC) to this file (inspect with `go tool pprof`)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tytrabench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile shows retention, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tytrabench: memprofile:", err)
			}
		}()
	}

	if *jsonOut {
		switch *jsonReport {
		case "pipesim":
			r, err := experiments.PipesimBench(*benchTime)
			if err != nil {
				return err
			}
			fmt.Fprint(out, r.JSON())
		case "dse-sim":
			r, err := experiments.DSESimBench(*benchTime)
			if err != nil {
				return err
			}
			fmt.Fprint(out, r.JSON())
		case "dse-model":
			r, err := experiments.DSEModelBench(*benchTime)
			if err != nil {
				return err
			}
			fmt.Fprint(out, r.JSON())
		case "dse-strat":
			r, err := experiments.DSEStrat(0, 0)
			if err != nil {
				return err
			}
			fmt.Fprint(out, r.JSON())
		default:
			return fmt.Errorf("unknown -report %q (have: pipesim, dse-sim, dse-model, dse-strat)", *jsonReport)
		}
		return nil
	}

	emit := func(t interface {
		String() string
		CSV() string
	}) {
		if *csv {
			fmt.Fprint(out, t.CSV())
		} else {
			fmt.Fprintln(out, t.String())
		}
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("fig9") {
		ran = true
		r, err := experiments.Fig9(device.StratixVGSD8())
		if err != nil {
			return err
		}
		emit(r.Table())
	}
	if want("fig10") {
		ran = true
		r, err := experiments.Fig10(device.Virtex7690T())
		if err != nil {
			return err
		}
		emit(r.Table())
	}
	if want("table2") {
		ran = true
		r, err := experiments.Table2(*full)
		if err != nil {
			return err
		}
		emit(r.Table())
	}
	if want("fig15") {
		ran = true
		r, err := experiments.Fig15()
		if err != nil {
			return err
		}
		emit(r.Table())
	}
	if want("fig15h") {
		ran = true
		// The full 14.4M-work-item NDRange is only simulated when
		// fig15h is asked for by name: inside "-exp all" the trimmed
		// workload keeps the default report run fast. The trimmed
		// sweep is a smaller workload (its DRAM wall and lane set can
		// differ from the full fig15 table above it); the calibration
		// verdict — model CPKI tracking simulated cycles per variant
		// — is what carries over.
		r, err := experiments.Fig15Hybrid(*full && *exp == "fig15h")
		if err != nil {
			return err
		}
		emit(r.Table())
	}
	if want("fig15d") {
		ran = true
		r, err := experiments.Fig15Devices()
		if err != nil {
			return err
		}
		t, err := r.Table()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("fig17") || want("fig18") {
		ran = true
		r := experiments.CaseStudy(nil, 1000)
		if want("fig17") {
			emit(r.Fig17Table())
		}
		if want("fig18") {
			emit(r.Fig18Table())
		}
	}
	if want("strat") {
		ran = true
		r, err := experiments.DSEStrat(0, 0)
		if err != nil {
			return err
		}
		emit(r.Table())
	}
	if want("speed") {
		ran = true
		mdl, err := costmodel.Calibrate(device.StratixVGSD8())
		if err != nil {
			return err
		}
		r, err := experiments.EstimatorSpeed(mdl)
		if err != nil {
			return err
		}
		emit(r.Table())
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}
