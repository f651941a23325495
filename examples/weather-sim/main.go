// weather-sim: the paper's motivating workload — the SOR pressure
// solver from the Large Eddy Simulator (§II) — run end to end on the
// generated architecture. The example builds the 4-lane TyTra variant
// of §VII, executes nmaxp solver iterations through the cycle-accurate
// pipeline simulator (each iteration's output pressure field feeds the
// next, the form-B pattern of Fig 6), validates the result against the
// golden kernel, and reports the modelled runtime and energy of the
// three case-study platforms for the same job (Figs 17/18).
//
//	go run ./examples/weather-sim
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/elab"
	"repro/internal/hlsbase"
	"repro/internal/kernels"
	"repro/internal/pipesim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run solves, validates and projects the LES pressure solver, and
// writes the log to w.
func run(w io.Writer) error {
	// A small LES grid so the example runs in moments; the solver
	// behaviour (stencil sweep + residual reduction) is the real thing.
	spec := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 4}
	const nmaxp = 25 // solver iterations per timestep (the paper uses 1000)

	m, err := spec.Module()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "LES pressure solver: %dx%dx%d grid, %d lanes, %d SOR iterations\n",
		spec.IM, spec.JM, spec.KM, spec.Lanes, nmaxp)

	// Initial pressure and source fields.
	fields := spec.MakeInputs(2026)
	p := fields["p"]
	rhs := fields["rhs"]

	// Compile the design once into its immutable, shareable form: the
	// solver loop below re-executes the same variant every sweep, so it
	// runs every sweep on one instance of the compiled design rather
	// than re-validating and re-lowering the datapath per instance. (A
	// service could hand this same design to any number of goroutines.)
	d, err := elab.Elaborate(m)
	if err != nil {
		return err
	}
	design, err := pipesim.Compile(d)
	if err != nil {
		return err
	}

	// Validate the first sweep against the golden kernel on the interior
	// (lane-slab boundaries read zero-fill halos).
	mem, err := kernels.BindInputs(map[string][]int64{"p": p, "rhs": rhs}, spec.Lanes)
	if err != nil {
		return err
	}
	first, err := design.Run(mem)
	if err != nil {
		return err
	}
	firstP, err := kernels.CollectOutput(first.Mem, "p_new", spec.Lanes)
	if err != nil {
		return err
	}
	want, _ := spec.Golden(map[string][]int64{"p": p, "rhs": rhs})
	checked := 0
	for i := range firstP {
		if !spec.InteriorIndex(int64(i)) {
			continue
		}
		if firstP[i] != want["p_new"][i] {
			return fmt.Errorf("validation failed at point %d: %d != %d", i, firstP[i], want["p_new"][i])
		}
		checked++
	}
	fmt.Fprintf(w, "iteration 0 validated against the golden kernel (%d interior points)\n", checked)

	// The solver loop: the pressure field feeds back into the next sweep
	// (form B of Fig 6), handled by the iteration driver.
	fb := pipesim.Feedback{}
	for l := 0; l < spec.Lanes; l++ {
		lane := l
		if spec.Lanes == 1 {
			lane = -1
		}
		fb[kernels.MemName("p_new", lane)] = kernels.MemName("p", lane)
	}
	res, err := design.RunIterations(mem, nmaxp, fb)
	if err != nil {
		return err
	}
	for k, acc := range res.AccHistory {
		if k == 0 || (k+1)%10 == 0 {
			fmt.Fprintf(w, "  iter %3d: residual accumulator %d\n", k+1, acc["sorErrAcc"])
		}
	}
	fmt.Fprintf(w, "solver done: %d total cycles for %d sweeps\n\n", res.TotalCycles, res.Instances)

	// How would this job fare on the three §VII platforms at production
	// scale? (grid 96³, nmaxp=1000, the weather model's typical size.)
	cs := hlsbase.NewCaseStudy(nil)
	fmt.Fprintln(w, "projected production run (96x96x96 grid, 1000 iterations):")
	for _, pf := range hlsbase.Platforms {
		sec := cs.Seconds(pf, 96, 1000)
		fmt.Fprintf(w, "  %-11s %7.2f s  %7.1f J above idle\n", pf, sec, cs.Joules(pf, 96, 1000))
	}
	return nil
}
