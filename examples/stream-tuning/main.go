// stream-tuning: the §V-C lesson as a working tool. Given a kernel that
// walks a 2-D array, the layout choice (row-major walk = contiguous
// streams; column-major walk = strided streams) changes sustained
// bandwidth by up to two orders of magnitude (Fig 10). This example runs
// the one-time bandwidth benchmark for a target, prints the measured
// table, and uses the fitted model to pick the layout and predict the
// throughput impact on a transpose-style kernel.
//
//	go run ./examples/stream-tuning
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/device"
	"repro/internal/membw"
	"repro/internal/report"
	"repro/internal/tir"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run calibrates the bandwidth model and writes the layout comparison
// to w.
func run(w io.Writer) error {
	target := device.Virtex7690T() // the paper's Fig 10 board
	fmt.Fprintf(w, "running the one-time STREAM benchmark on %s...\n\n", target.Name)
	model, err := membw.Build(target)
	if err != nil {
		return err
	}

	tab := report.NewTable("Measured sustained bandwidth (Fig 10)",
		"dim", "pattern", "Gbps")
	for _, s := range model.Table {
		tab.AddRow(s.Dim, s.Pattern.String(), s.Gbps())
	}
	fmt.Fprintln(w, tab)

	// A kernel streaming a dim x dim ui32 array, once per kernel
	// instance: compare the two layouts.
	for _, dim := range []int{500, 2000, 6000} {
		bytes := int64(dim) * int64(dim) * 4
		rowMajor := model.SustainedDRAM(bytes, tir.PatternContiguous)
		colMajor := model.SustainedDRAM(bytes, tir.PatternStrided)
		ratio := rowMajor / colMajor
		fmt.Fprintf(w, "%dx%d ui32 array (%d MB):\n", dim, dim, bytes>>20)
		fmt.Fprintf(w, "  row-major walk: %7.3f Gbps sustained (rhoG %.2f)\n",
			rowMajor*8/1e9, model.RhoG(bytes, tir.PatternContiguous))
		fmt.Fprintf(w, "  column walk:    %7.3f Gbps sustained (rhoG %.3f)\n",
			colMajor*8/1e9, model.RhoG(bytes, tir.PatternStrided))
		fmt.Fprintf(w, "  -> keep streams contiguous: %.0fx faster; a transpose stage\n", ratio)
		fmt.Fprintf(w, "     pays for itself whenever the kernel re-reads the array more than once\n\n")
	}

	// The model also prices the host link for form-A designs.
	for _, mb := range []int64{1, 16, 256} {
		b := mb << 20
		fmt.Fprintf(w, "host link, %4d MB transfer: %.2f GB/s sustained (rhoH %.2f)\n",
			mb, model.SustainedHost(b)/1e9, model.RhoH(b))
	}
	return nil
}
