// Quickstart: parse a TyTra-IR design variant, cost it, and read the
// estimates — the minimal end-to-end use of the library (Fig 2's
// cost-model use case).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/tir"
)

// design is a small streaming kernel in TyTra-IR surface syntax: a
// weighted 3-point moving average with a global sum, structured exactly
// like the paper's Fig 12 (offset streams, constant multiplies, an
// output stream and a reduction).
const design = `
; A 3-point weighted moving-average kernel.
%mem_x = memobj ui18, size 65536, space global, pattern CONT
%mem_y = memobj ui18, size 65536, space global, pattern CONT
%str_x = strobj %mem_x, dir in, port main.x
%str_y = strobj %mem_y, dir out, port main.y
@main.x = addrSpace(12) ui18, !"istream", !"CONT", !0, !"str_x"
@main.y = addrSpace(12) ui18, !"ostream", !"CONT", !0, !"str_y"

define void @f0(ui18 %x, ui18 %y) pipe {
  ui18 %xp = ui18 %x, !offset, !+1
  ui18 %xn = ui18 %x, !offset, !-1
  ui18 %a = mul ui18 %xp, 3
  ui18 %b = mul ui18 %x, 10
  ui18 %c = mul ui18 %xn, 3
  ui18 %ab = add ui18 %a, %b
  ui18 %s = add ui18 %ab, %c
  ui18 %avg = lshr ui18 %s, 4
  out ui18 %y, %avg
  ui18 @sum = add ui18 %avg, @sum
}
define void @main() {
  call @f0(@main.x, @main.y) pipe
}
`

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run costs the design and writes the report to w.
func run(w io.Writer) error {
	// One-time per-target setup: calibrate the resource cost model
	// against the synthesis substrate and run the bandwidth benchmark.
	target := device.StratixVGSD8()
	mdl, err := costmodel.Calibrate(target)
	if err != nil {
		return err
	}
	bw, err := membw.Build(target)
	if err != nil {
		return err
	}

	// Parse and elaborate the design variant.
	m, err := tir.Parse("movavg", design)
	if err != nil {
		return err
	}
	d, err := elab.Elaborate(m)
	if err != nil {
		return err
	}

	// Cost it: resource estimate, Table I parameters, EKIT throughput
	// under form B (data resident in device DRAM across iterations).
	rep, err := core.Cost(mdl, bw, d, perf.Workload{NKI: 1000}, perf.FormB)
	if err != nil {
		return err
	}

	est := rep.Est
	fmt.Fprintf(w, "design %q (%v) on %s\n", rep.Module.Name, est.Config, target.Name)
	fmt.Fprintf(w, "  resources: %v\n", est.Used)
	fmt.Fprintf(w, "  pipeline depth %d cycles, max offset %d elements, %d instructions/PE\n",
		est.KPD, est.Noff, est.NI)
	fmt.Fprintf(w, "  fits device: %v\n", est.Fits())
	fmt.Fprintf(w, "  EKIT: %.3g kernel-instances/s (limited by %s)\n", rep.EKIT, rep.Breakdown.Limiter)
	fmt.Fprintf(w, "  estimated CPKI for 65536 items: %d cycles\n", est.CPKI(65536))

	// Emit the synthesisable Verilog for HLS integration (§VII).
	verilog, err := hdl.Emit(d)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  generated %d bytes of Verilog (module tytra_top_%s)\n", len(verilog), rep.Module.Name)
	return nil
}
