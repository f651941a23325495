// Quickstart: parse a TyTra-IR design variant, cost it, and read the
// estimates — the minimal end-to-end use of the library (Fig 2's
// cost-model use case).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/perf"
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
	// One-time per-target setup: calibrate the resource cost model
	// against the synthesis substrate and run the bandwidth benchmark.
	target := device.StratixVGSD8()
	compiler, err := core.New(target)
	if err != nil {
		log.Fatal(err)
	}

	// Parse and elaborate the design variant.
	d, err := compiler.Parse("movavg", design)
	if err != nil {
		log.Fatal(err)
	}

	// Cost it: resource estimate, Table I parameters, EKIT throughput
	// under form B (data resident in device DRAM across iterations).
	rep, err := compiler.Cost(d, perf.Workload{NKI: 1000}, perf.FormB)
	if err != nil {
		log.Fatal(err)
	}

	est := rep.Est
	fmt.Printf("design %q (%v) on %s\n", rep.Module.Name, est.Config, target.Name)
	fmt.Printf("  resources: %v\n", est.Used)
	fmt.Printf("  pipeline depth %d cycles, max offset %d elements, %d instructions/PE\n",
		est.KPD, est.Noff, est.NI)
	fmt.Printf("  fits device: %v\n", est.Fits())
	fmt.Printf("  EKIT: %.3g kernel-instances/s (limited by %s)\n", rep.EKIT, rep.Breakdown.Limiter)
	fmt.Printf("  estimated CPKI for 65536 items: %d cycles\n", est.CPKI(65536))

	// Emit the synthesisable Verilog for HLS integration (§VII).
	hdl, err := compiler.EmitHDL(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  generated %d bytes of Verilog (module tytra_top_%s)\n", len(hdl), rep.Module.Name)
}
