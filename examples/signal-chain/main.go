// signal-chain: a coarse-grained pipeline (Fig 7 configuration 3) built
// directly with the IR builder — three processing stages connected
// through on-chip channels, the composition the TyTra design-space model
// uses when a kernel is too large for a single pipeline. The example
// builds the design, costs it, simulates a kernel-instance, and emits
// its Verilog.
//
// The chain is a classic sensor front-end: despike (median-of-3) →
// smooth (3-tap average) → rescale + global energy accumulation.
//
//	go run ./examples/signal-chain
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
	"repro/internal/pipesim"
	"repro/internal/tir"
)

const n = 4096 // samples per kernel-instance

func buildChain() (*tir.Module, error) {
	b := tir.NewBuilder("sigchain")
	ty := tir.UIntT(16)

	// Stage 1: despike with a median-of-three (min/max network).
	s1 := b.Func("despike", tir.ModePipe)
	x := s1.Param("x", ty)
	o1 := s1.Param("o", ty)
	xp := s1.Offset(x, 1)
	xn := s1.Offset(x, -1)
	hi := s1.Bin(tir.OpMax, xp, xn)
	lo := s1.Bin(tir.OpMin, xp, xn)
	med := s1.Bin(tir.OpMax, lo, s1.Bin(tir.OpMin, hi, x))
	s1.Out(o1, med)

	// Stage 2: 3-tap smoothing.
	s2 := b.Func("smooth", tir.ModePipe)
	y := s2.Param("y", ty)
	o2 := s2.Param("o", ty)
	yp := s2.Offset(y, 1)
	yn := s2.Offset(y, -1)
	sum := s2.Add(s2.Add(yp, yn), s2.MulImm(y, 2))
	s2.Out(o2, s2.BinImm(tir.OpLshr, sum, 2))

	// Stage 3: rescale and accumulate signal energy.
	s3 := b.Func("scale", tir.ModePipe)
	z := s3.Param("z", ty)
	o3 := s3.Param("o", ty)
	v := s3.MulImm(z, 25) // fixed gain (shift-add, no DSPs)
	out := s3.BinImm(tir.OpLshr, v, 4)
	s3.Out(o3, out)
	s3.Accumulate("energy", tir.OpAdd, out)

	// The coarse pipeline: stages chained through on-chip channels.
	top := b.Func("chain", tir.ModePipe)
	px := b.GlobalPort("main", "x", ty, n, tir.DirIn, tir.PatternContiguous, 1)
	py := b.GlobalPort("main", "y", ty, n, tir.DirOut, tir.PatternContiguous, 1)
	c1w, c1r := b.LocalChannel("main", "c1", ty, n)
	c2w, c2r := b.LocalChannel("main", "c2", ty, n)
	top.CallOperands("despike", tir.ModePipe, px, c1w)
	top.CallOperands("smooth", tir.ModePipe, c1r, c2w)
	top.CallOperands("scale", tir.ModePipe, c2r, py)

	main := b.Func("main", tir.ModeSeq)
	main.CallOperands("chain", tir.ModePipe)
	return b.Module()
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds, costs, simulates and emits the chain, and writes the
// report to w.
func run(w io.Writer) error {
	m, err := buildChain()
	if err != nil {
		return err
	}
	d, err := elab.Elaborate(m)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "built %q: %v, 3 stages over on-chip channels\n", m.Name, d.Config())

	// One-time per-target setup (Fig 2): calibrate the resource cost
	// model and run the bandwidth benchmark.
	target := device.StratixVGSD8()
	mdl, err := costmodel.Calibrate(target)
	if err != nil {
		return err
	}
	bw, err := membw.Build(target)
	if err != nil {
		return err
	}

	// Cost it: KPD accumulates along the chain; the channels live in
	// block RAM; throughput stays one sample per cycle.
	rep, err := core.Cost(mdl, bw, d, perf.Workload{NKI: 100}, perf.FormC)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cost: %v\n", rep.Est.Used)
	fmt.Fprintf(w, "chain pipeline depth %d cycles, EKIT %.4g instances/s (%s)\n",
		rep.Est.KPD, rep.EKIT, rep.Breakdown.Limiter)

	// Run a kernel-instance through the cycle-accurate simulator.
	samples := make([]int64, n)
	for i := range samples {
		base := int64(600 + 400*((i/64)%2)) // square wave
		if i%97 == 0 {
			base += 20000 // spikes the despike stage removes
		}
		samples[i] = base
	}
	cd, err := pipesim.Compile(d)
	if err != nil {
		return err
	}
	res, err := cd.Run(map[string][]int64{"mem_main_x": samples})
	if err != nil {
		return err
	}
	y := res.Mem["mem_main_y"]
	fmt.Fprintf(w, "simulated %d samples in %d cycles (%.3f cycles/sample)\n",
		n, res.Cycles, float64(res.Cycles)/float64(n))
	fmt.Fprintf(w, "signal energy accumulator: %d\n", res.Acc["energy"])
	fmt.Fprintf(w, "spike at sample 97: raw %d -> filtered %d\n", samples[97], y[97])

	// And the Verilog for HLS integration.
	verilog, err := hdl.Emit(d)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "emitted %d bytes of Verilog (3 datapath + 3 stream-control modules)\n", len(verilog))
	return nil
}
