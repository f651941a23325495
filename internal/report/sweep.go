package report

import (
	"fmt"
	"sort"

	"repro/internal/dse"
)

// SweepTable renders a lane sweep in the layout cmd/tytradse prints:
// one row per evaluated variant with the resource and bandwidth
// utilisation bars of Fig 15 and the throughput limiter.
func SweepTable(title string, sw *dse.Sweep) *Table {
	t := NewTable(title,
		"lanes", "ALUTs", "%ALUT", "%BRAM", "%GMemBW", "%HostBW", "EKIT/s", "fits", "limit")
	for _, p := range sw.Points {
		t.AddRow(p.Lanes, p.Est.Used.ALUTs,
			p.UtilALUT*100, p.UtilBRAM*100, p.UtilGMemBW*100, p.UtilHostBW*100,
			p.EKIT, fmt.Sprintf("%v", p.Fits), p.Limiter)
	}
	return t
}

// DeviceSweepTable renders a cross-device exploration as one table:
// the rows of SweepTable with a leading device column, grouped by
// shelf entry in axis order and by lane count within each entry. The
// result must come from a device-axis exploration (dse.DeviceAxis).
func DeviceSweepTable(title string, r *dse.Result) (*Table, error) {
	di, ok := r.Space.AxisIndex(dse.AxisDevice)
	if !ok {
		return nil, fmt.Errorf("report: result has no device axis")
	}
	li, ok := r.Space.AxisIndex(dse.AxisLanes)
	if !ok {
		return nil, fmt.Errorf("report: result has no lanes axis")
	}
	t := NewTable(title,
		"device", "lanes", "ALUTs", "%ALUT", "%BRAM", "%GMemBW", "%HostBW", "EKIT/s", "fits", "limit")
	devAxis, lanesAxis := r.Space.Axes()[di], r.Space.Axes()[li]
	for dvi := range devAxis.Values {
		for lvi := range lanesAxis.Values {
			for i, v := range r.Variants {
				if v[di] != dvi || v[li] != lvi || r.Points[i] == nil {
					continue
				}
				p := r.Points[i]
				name := p.Device
				if name == "" && len(devAxis.Labels) != 0 {
					name = devAxis.Labels[dvi]
				}
				t.AddRow(name, p.Lanes, p.Est.Used.ALUTs,
					p.UtilALUT*100, p.UtilBRAM*100, p.UtilGMemBW*100, p.UtilHostBW*100,
					p.EKIT, fmt.Sprintf("%v", p.Fits), p.Limiter)
			}
		}
	}
	return t, nil
}

// DeviceSummaryTable condenses a cross-device exploration to one row
// per shelf entry: the best fitting variant, its throughput and peak
// utilisation, and the walls of that device's slice of the sweep.
func DeviceSummaryTable(title string, r *dse.Result) (*Table, error) {
	di, ok := r.Space.AxisIndex(dse.AxisDevice)
	if !ok {
		return nil, fmt.Errorf("report: result has no device axis")
	}
	t := NewTable(title,
		"device", "points", "best", "EKIT/s", "peak-util", "host-wall", "dram-wall", "compute-wall")
	devAxis := r.Space.Axes()[di]
	for dvi, val := range devAxis.Values {
		slice, err := r.Slice(dse.AxisDevice, val)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%d", val)
		if len(devAxis.Labels) != 0 {
			name = devAxis.Labels[dvi]
		}
		if slice.Best == nil {
			t.AddRow(name, len(slice.Points), "-", "-", "-",
				slice.Walls.Host, slice.Walls.DRAM, slice.Walls.Compute)
			continue
		}
		t.AddRow(name, len(slice.Points),
			fmt.Sprintf("%d lanes", slice.Best.Lanes), slice.Best.EKIT,
			fmt.Sprintf("%.0f%%", slice.Best.PeakUtil()*100),
			slice.Walls.Host, slice.Walls.DRAM, slice.Walls.Compute)
	}
	return t, nil
}

// FrontierLine renders the Pareto frontier of a result, cheapest
// design first, as the one-line summary the CLI appends under the
// sweep table.
func FrontierLine(r *dse.Result) string {
	if len(r.Frontier) == 0 {
		return ""
	}
	front := make([]int, len(r.Frontier))
	copy(front, r.Frontier)
	sort.SliceStable(front, func(a, b int) bool {
		return r.Points[front[a]].PeakUtil() < r.Points[front[b]].PeakUtil()
	})
	s := "pareto frontier (EKIT/s @ peak utilisation):"
	for _, i := range front {
		p := r.Points[i]
		s += fmt.Sprintf(" %s(%.3g @ %.0f%%)", r.Space.Describe(r.Variants[i]), p.EKIT, p.PeakUtil()*100)
	}
	return s + "\n"
}
