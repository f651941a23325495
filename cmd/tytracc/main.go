// Command tytracc is the TyTra back-end compiler driver: it parses a
// design variant in TyTra-IR surface syntax (a .tirl file), costs it with
// the resource and throughput models, and optionally emits synthesisable
// Verilog and the synthesis-substrate comparison (Fig 11).
//
// Usage:
//
//	tytracc [-target stratix-v-gsd8] [-form B] [-nki 1000] [-hdl out.v] [-synth] design.tirl
//
// With -kernel (sor|hotspot|lavamd) a built-in kernel is costed instead
// of reading a file; -lanes picks its variant.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/kernels"
	"repro/internal/perf"
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
	kernel := fs.String("kernel", "", "cost a built-in kernel (sor | hotspot | lavamd | srad) instead of a file")
	lanes := fs.Int("lanes", 1, "lane count for -kernel variants")
	bwCache := fs.String("bwcache", "", "bandwidth-calibration cache file: loaded if present, written after a fresh benchmark")
	tbOut := fs.String("tb", "", "with -kernel: write a self-checking Verilog testbench (stimulus + simulator-derived expectations)")
	if err := fs.Parse(args); err != nil {
		return err
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
	switch {
	case *kernel != "":
		spec, err := builtinSpec(*kernel, *lanes)
		if err != nil {
			return err
		}
		m, err = spec.Module()
		if err != nil {
			return err
		}
	case fs.NArg() == 1:
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		m, err = tir.ParseOnly(fs.Arg(0), string(src))
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
	c, err := newCompiler(out, target, *bwCache)
	if err != nil {
		return err
	}

	rep, err := c.Cost(d, perf.Workload{NKI: *nki}, form)
	if err != nil {
		return err
	}
	printReport(out, rep)

	if *synth {
		nl := c.Synthesize(d)
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
		src, err := c.EmitHDL(d)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*hdlOut, []byte(src), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d bytes of Verilog to %s\n", len(src), *hdlOut)
	}

	if *tbOut != "" {
		if *kernel == "" {
			return fmt.Errorf("-tb needs -kernel (the testbench derives its expectations from the built-in workload)")
		}
		spec, err := builtinSpec(*kernel, *lanes)
		if err != nil {
			return err
		}
		laneCount := 1
		if ls, ok := spec.(kernels.LanedSpec); ok {
			laneCount = ls.LaneCount()
		}
		mem, err := kernels.BindInputs(spec.MakeInputs(1), laneCount)
		if err != nil {
			return err
		}
		sim, err := c.Simulate(d, mem)
		if err != nil {
			return err
		}
		expected := map[string][]int64{}
		for _, name := range spec.OutputNames() {
			for l := 0; l < laneCount; l++ {
				lane := l
				if laneCount == 1 {
					lane = -1
				}
				mn := kernels.MemName(name, lane)
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

// newCompiler performs the one-time per-target calibration, reusing an
// archived bandwidth table when available (the bandwidth sweep is the
// slow part of Fig 2's one-time experiments).
func newCompiler(out io.Writer, target *device.Target, bwCache string) (*core.Compiler, error) {
	if bwCache != "" {
		if f, err := os.Open(bwCache); err == nil {
			defer f.Close()
			c, err := core.NewFromCalibration(target, f)
			if err != nil {
				return nil, fmt.Errorf("loading %s: %w", bwCache, err)
			}
			fmt.Fprintf(out, "loaded bandwidth calibration for %s from %s\n", target.Name, bwCache)
			return c, nil
		}
	}
	fmt.Fprintf(out, "calibrating cost model for %s (one-time per target)...\n", target.Name)
	c, err := core.New(target)
	if err != nil {
		return nil, err
	}
	if bwCache != "" {
		f, err := os.Create(bwCache)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := c.BW.SaveTable(f); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "saved bandwidth calibration to %s\n", bwCache)
	}
	return c, nil
}

func builtinSpec(name string, lanes int) (kernels.Spec, error) {
	switch name {
	case "sor":
		s := kernels.DefaultSOR()
		s.Lanes = lanes
		return s, nil
	case "hotspot":
		s := kernels.DefaultHotspot()
		s.Lanes = lanes
		return s, nil
	case "lavamd":
		s := kernels.DefaultLavaMD()
		s.Lanes = lanes
		return s, nil
	case "srad":
		s := kernels.DefaultSRAD()
		s.Lanes = lanes
		return s, nil
	}
	return nil, fmt.Errorf("unknown kernel %q (want sor, hotspot, lavamd or srad)", name)
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
