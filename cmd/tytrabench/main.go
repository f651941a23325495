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
// Each experiment runs the paper's one configuration of it at full
// scale (Table II at the kernels' Table II sizes, both Fig 15 sweeps
// over the ~14.4M-item SOR NDRange), so -exp all prints exactly the
// tables the experiments print by name. -csv emits CSV instead of
// aligned tables.
//
// -cpuprofile and -memprofile wrap any of the above in the standard
// pprof collectors, for chasing hot spots:
//
//	tytrabench -exp table2 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
//
// The repository's performance numbers come from `go test` benchmarks
// (the root bench_test.go and each package's Benchmark functions) and
// from the end-to-end benchmark under bench/, not from this command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

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
		r, err := experiments.Fig9()
		if err != nil {
			return err
		}
		emit(r.Table())
	}
	if want("fig10") {
		ran = true
		r, err := experiments.Fig10()
		if err != nil {
			return err
		}
		emit(r.Table())
	}
	if want("table2") {
		ran = true
		r, err := experiments.Table2()
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
		r, err := experiments.Fig15Hybrid()
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
		r := experiments.CaseStudy()
		if want("fig17") {
			emit(r.Fig17Table())
		}
		if want("fig18") {
			emit(r.Fig18Table())
		}
	}
	if want("strat") {
		ran = true
		r, err := experiments.DSEStrat()
		if err != nil {
			return err
		}
		emit(r.Table())
	}
	if want("speed") {
		ran = true
		r, err := experiments.EstimatorSpeed()
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
