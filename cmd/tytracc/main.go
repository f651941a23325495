// Command tytracc is the TyTra back-end compiler driver: it parses a
// design variant in TyTra-IR surface syntax (a .tirl file), costs it with
// the resource and throughput models, and optionally emits synthesisable
// Verilog and the synthesis-substrate comparison (Fig 11).
//
// Usage:
//
//	tytracc [-target stratix-v-gsd8] [-form B] [-nki 1000] [-hdl out.v] [-synth] [-cache DIR] design.tirl
//
// With -kernel (sor|hotspot|lavamd|srad, the kernels package's
// built-ins) a built-in kernel is costed at its Table II configuration
// instead of reading a file; -lanes picks its variant, which must
// divide the kernel's NDRange and stay within the elab.MaxInstances
// lanes a design may materialise, and -tb writes its testbench. Both
// need -kernel and are refused with a file. -cache DIR is the
// persistent evaluation store tytradse -cache uses: the target's
// bandwidth benchmark table is read from it when present and written to
// it otherwise, the cost model is recalibrated on every run
// (microseconds), and a warm run prints byte-identical output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/elab"
	"repro/internal/evalstore"
	"repro/internal/fabric"
	"repro/internal/hdl"
	"repro/internal/kernels"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/pipesim"
	"repro/internal/report"
	"repro/internal/tir"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tytracc:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tytracc", flag.ContinueOnError)
	targetName := fs.String("target", "stratix-v-gsd8",
		fmt.Sprintf("FPGA target (%s)", strings.Join(device.Names(), " | ")))
	formName := fs.String("form", "B", "memory-execution form (A | B | C, Fig 6)")
	nki := fs.Int64("nki", 1000, "kernel-instance repetitions (the SOR solver's nmaxp)")
	hdlOut := fs.String("hdl", "", "write generated Verilog to this file")
	synth := fs.Bool("synth", false, "also run the synthesis substrate and compare (Table II style)")
	kernel := fs.String("kernel", "",
		fmt.Sprintf("cost a built-in kernel (%s) instead of a file", strings.Join(kernels.Names(), " | ")))
	lanes := fs.Int("lanes", 1, "lane count for -kernel variants")
	cacheDir := fs.String("cache", "", "persistent evaluation cache directory: the target's bandwidth benchmark is reused across runs (warm runs print byte-identical output)")
	tbOut := fs.String("tb", "", "with -kernel: write a self-checking Verilog testbench (stimulus + simulator-derived expectations)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nki < 1 {
		return fmt.Errorf("-nki %d: a workload runs at least one kernel-instance", *nki)
	}
	// -lanes and -tb act on a built-in kernel: a .tirl file fixes its
	// own lane count and carries no workload to derive expectations from.
	if *kernel == "" {
		lanesSet := false
		fs.Visit(func(f *flag.Flag) { lanesSet = lanesSet || f.Name == "lanes" })
		switch {
		case lanesSet:
			return fmt.Errorf("-lanes needs -kernel (a .tirl file fixes its own lane count)")
		case *tbOut != "":
			return fmt.Errorf("-tb needs -kernel (the testbench derives its expectations from the built-in workload)")
		}
	}
	// A variant materialises each lane, so the lane count stops where
	// the simulator and the HDL back end stop.
	if *lanes > elab.MaxInstances {
		return fmt.Errorf("-lanes %d: above the %d lanes a design may materialise", *lanes, elab.MaxInstances)
	}

	target, err := device.Lookup(*targetName)
	if err != nil {
		return err
	}
	form, err := perf.ParseForm(*formName)
	if err != nil {
		return err
	}

	var m *tir.Module
	var spec kernels.Spec
	switch {
	case *kernel != "":
		k, err := kernels.Lookup(*kernel)
		if err != nil {
			return err
		}
		spec = k.Table2
		m, err = kernels.Variant(spec, *lanes)
		if err != nil {
			return err
		}
	case fs.NArg() == 1:
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		m, err = tir.Parse(fs.Arg(0), string(src))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need exactly one .tirl file or -kernel (got %d args)", fs.NArg())
	}

	// One elaboration serves every stage below: the verdict, the call
	// graph and the datapath schedules are derived once.
	d, err := elab.Elaborate(m)
	if err != nil {
		return err
	}
	mdl, bw, err := models(out, target, *cacheDir)
	if err != nil {
		return err
	}

	rep, err := core.Cost(mdl, bw, d, perf.Workload{NKI: *nki}, form)
	if err != nil {
		return err
	}
	printReport(out, rep)

	if *synth {
		nl := fabric.New(target).Synthesize(d)
		tab := report.NewTable("Estimated vs synthesised", "row", "ALUT", "REG", "BRAM", "DSP")
		tab.AddRow("estimated", rep.Est.Used.ALUTs, rep.Est.Used.Regs, rep.Est.Used.BRAM, rep.Est.Used.DSPs)
		tab.AddRow("actual", nl.Used.ALUTs, nl.Used.Regs, nl.Used.BRAM, nl.Used.DSPs)
		tab.AddRow("% error",
			report.FormatPct(report.PctErr(float64(rep.Est.Used.ALUTs), float64(nl.Used.ALUTs))),
			report.FormatPct(report.PctErr(float64(rep.Est.Used.Regs), float64(nl.Used.Regs))),
			report.FormatPct(report.PctErr(float64(rep.Est.Used.BRAM), float64(nl.Used.BRAM))),
			report.FormatPct(report.PctErr(float64(rep.Est.Used.DSPs), float64(nl.Used.DSPs))))
		fmt.Fprintln(out, tab)
	}

	if *hdlOut != "" {
		src, err := hdl.Emit(d)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*hdlOut, []byte(src), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d bytes of Verilog to %s\n", len(src), *hdlOut)
	}

	if *tbOut != "" {
		mem, err := kernels.BindInputs(spec.MakeInputs(1), *lanes)
		if err != nil {
			return err
		}
		cd, err := pipesim.Compile(d)
		if err != nil {
			return err
		}
		sim, err := cd.Run(mem)
		if err != nil {
			return err
		}
		expected := map[string][]int64{}
		for _, sig := range spec.Kernel().Outputs {
			for l := 0; l < *lanes; l++ {
				lane := l
				if *lanes == 1 {
					lane = -1
				}
				mn := kernels.MemName(sig.Name, lane)
				expected[mn] = sim.Mem[mn]
			}
		}
		latency := int(rep.Est.Noff) + rep.Est.KPD + 64
		tb, err := hdl.EmitTestbench(d, mem, expected, latency)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*tbOut, []byte(tb), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d bytes of testbench to %s (latency margin %d cycles)\n",
			len(tb), *tbOut, latency)
	}
	return nil
}

// models performs the one-time per-target calibration. With cacheDir it
// reads the bandwidth table from the evaluation store there instead of
// running the benchmark (the models record tytradse -cache shares,
// keyed by the whole target description) and recalibrates only the
// cost model. The calibration line prints warm and cold alike, so a
// warm run's output is byte-identical to the cold run's.
func models(out io.Writer, target *device.Target, cacheDir string) (*costmodel.Model, *membw.Model, error) {
	fmt.Fprintf(out, "calibrating cost model for %s (one-time per target)...\n", target.Name)
	var store *evalstore.Store
	if cacheDir != "" {
		var err error
		if store, err = evalstore.Open(cacheDir); err != nil {
			return nil, nil, err
		}
	}
	return dse.NewModelCacheStore(store).Models(target)
}

func printReport(out io.Writer, rep *core.Report) {
	est := rep.Est
	tab := report.NewTable(
		fmt.Sprintf("Cost report for %s (%s, %s)", rep.Module.Name, est.Config, rep.Form),
		"metric", "value")
	tab.AddRow("ALUTs", est.Used.ALUTs)
	tab.AddRow("Registers", est.Used.Regs)
	tab.AddRow("BRAM bits", est.Used.BRAM)
	tab.AddRow("DSP elements", est.Used.DSPs)
	a, r, b, d := est.Utilisation()
	tab.AddRow("util ALUT/Reg/BRAM/DSP",
		fmt.Sprintf("%.2f%% / %.2f%% / %.2f%% / %.2f%%", a*100, r*100, b*100, d*100))
	tab.AddRow("fits device", fmt.Sprintf("%v", est.Fits()))
	tab.AddRow("lanes (KNL)", est.Lanes)
	tab.AddRow("pipeline depth (KPD)", est.KPD)
	tab.AddRow("max offset (Noff)", est.Noff)
	tab.AddRow("instructions/PE (NI)", est.NI)
	tab.AddRow("rhoH / rhoG", fmt.Sprintf("%.3f / %.3f", rep.Params.RhoH, rep.Params.RhoG))
	tab.AddRow("EKIT (kernel-instances/s)", rep.EKIT)
	tab.AddRow("limited by", rep.Breakdown.Limiter)
	fmt.Fprintln(out, tab)
}
