// device-shelf: cross-device design-space exploration. The paper's
// cost model takes a one-time "target description" per device (Fig 2);
// this example sweeps one kernel family across a shelf of such
// descriptions in a single lanes×device engine run — the two paper
// boards, the scaled educational target, and a synthetic "next-gen"
// entry registered on the fly — and asks where each design is best
// hosted. The per-device cost and bandwidth models are calibrated
// lazily, exactly once per shelf entry, by the evaluator's model
// cache.
//
//	go run ./examples/device-shelf
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/kernels"
	"repro/internal/perf"
	"repro/internal/report"
	"repro/internal/tir"
)

// nextGenGSD8 is a synthetic shelf entry: a GSD8 with doubled logic
// and a second DRAM channel — the what-if device a capacity-planning
// sweep would ask about before the board exists.
func nextGenGSD8() *device.Target {
	t := device.StratixVGSD8()
	t.Name = "gsd8-nextgen-2x"
	t.Capacity.ALUTs *= 2
	t.Capacity.Regs *= 2
	t.Capacity.DSPs *= 2
	t.DRAM.PeakBandwidth *= 2
	t.FmaxHz = 250e6
	return t
}

// registerNextGen adds the synthetic entry to the registry, once per
// process.
var registerNextGen = sync.OnceValue(func() error { return device.Register(nextGenGSD8) })

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run sweeps the kernel family across the shelf and writes the
// summary to w.
func run(w io.Writer) error {
	if err := registerNextGen(); err != nil {
		return err
	}
	// The registry now knows the synthetic entry by name, exactly like
	// the built-ins.
	shelf, err := device.Shelf("stratix-v-gsd8-edu", "stratix-v-gsd8", "virtex-7-690t", "gsd8-nextgen-2x")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "device shelf:", device.Names())

	// The swept family: the SOR relaxation kernel at every reshape-legal
	// lane count up to 16.
	spec := kernels.Fig15SOR()
	build := func(lanes int) (*tir.Module, error) { return kernels.Variant(spec, lanes) }
	space, err := dse.NewSpace(
		dse.LanesAxis(dse.DivisorLaneCounts(spec.GlobalSize(), 16)),
		dse.DeviceAxis(shelf...),
	)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "exploring %d points (%d lane variants x %d devices)...\n\n",
		space.Size(), space.Size()/len(shelf), len(shelf))
	res, err := core.Explore(dse.EvalModel, shelf, nil, build, space,
		perf.Workload{NKI: 10}, perf.FormB, dse.ParetoFrontier{}, 0, dse.SearchOptions{})
	if err != nil {
		return err
	}

	summary, err := report.DeviceSummaryTable("cross-device summary (SOR, form B)", res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, summary)
	if line := report.FrontierLine(res); line != "" {
		fmt.Fprint(w, line)
	}
	if res.Best != nil {
		fmt.Fprintf(w, "\nbest hosting for the kernel: %s at %d lanes (EKIT %.3g/s, %.0f%% peak utilisation)\n",
			res.Best.Device, res.Best.Lanes, res.Best.EKIT, res.Best.PeakUtil()*100)
	}

	// The per-device walls, one Fig 15 story per shelf entry.
	fmt.Fprintln(w, "\nwalls per device (lane count where each limit bites; 0 = outside the sweep):")
	for i, tgt := range shelf {
		slice, err := res.Slice(dse.AxisDevice, i)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-20s host=%-3d dram=%-3d compute=%d\n",
			tgt.Name, slice.Walls.Host, slice.Walls.DRAM, slice.Walls.Compute)
	}
	return nil
}
