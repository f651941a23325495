package dse

import (
	"testing"

	"repro/internal/perf"
)

// lanesDVGrid explores lanes {1,2,4} × dv {1,2,4} exhaustively and
// lays the points out as a grid: grid[i][j] has lanes[i] lanes at
// dvs[j] ways.
func lanesDVGrid(t *testing.T, form perf.Form) (lanes, dvs []int, grid [][]Point, res *Result) {
	t.Helper()
	mdl, bw := fixtures(t)
	lanes, dvs = []int{1, 2, 4}, []int{1, 2, 4}
	res, err := exhaustive(mdl, bw, sorBuilder, perf.Workload{NKI: 10}, form,
		LanesAxis(lanes), DVAxis(dvs))
	if err != nil {
		t.Fatal(err)
	}
	grid = make([][]Point, len(lanes))
	for i := range grid {
		grid[i] = make([]Point, len(dvs))
	}
	for i, v := range res.Variants {
		grid[v[0]][v[1]] = *res.Points[i]
	}
	return lanes, dvs, grid, res
}

func TestVectorisationSharesControl(t *testing.T) {
	// At the same work-items/cycle, (1 lane, DV=4) must cost less logic
	// than (4 lanes, DV=1): the vectorised lane shares stream control
	// and offset windows.
	_, _, grid, _ := lanesDVGrid(t, perf.FormC)
	lane1dv4 := grid[0][2]
	lane4dv1 := grid[2][0]
	if lane1dv4.Est.Used.ALUTs >= lane4dv1.Est.Used.ALUTs {
		t.Errorf("DV=4 (%d ALUTs) should undercut 4 lanes (%d ALUTs)",
			lane1dv4.Est.Used.ALUTs, lane4dv1.Est.Used.ALUTs)
	}
	// BRAM gap is starker: one window instead of four.
	if lane1dv4.Est.Used.BRAM >= lane4dv1.Est.Used.BRAM {
		t.Errorf("DV=4 BRAM %d should undercut 4-lane BRAM %d",
			lane1dv4.Est.Used.BRAM, lane4dv1.Est.Used.BRAM)
	}
}

func TestVectorisationSameThroughputWhileComputeBound(t *testing.T) {
	// While compute-bound, (1,4) and (4,1) deliver the same EKIT: both
	// complete 4 work-items per cycle.
	_, _, grid, _ := lanesDVGrid(t, perf.FormC)
	e14 := grid[0][2].EKIT
	e41 := grid[2][0].EKIT
	ratio := e14 / e41
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("EKIT(1,4)/EKIT(4,1) = %.3f, want ~1", ratio)
	}
}

func TestVectorisationMonotoneCostAndSpeed(t *testing.T) {
	lanes, dvs, grid, _ := lanesDVGrid(t, perf.FormC)
	for i := range lanes {
		for j := 1; j < len(dvs); j++ {
			if grid[i][j].Est.Used.ALUTs <= grid[i][j-1].Est.Used.ALUTs {
				t.Errorf("(%d lanes) ALUTs not increasing with DV", lanes[i])
			}
			if grid[i][j].EKIT < grid[i][j-1].EKIT {
				t.Errorf("(%d lanes) EKIT decreasing with DV while compute-bound", lanes[i])
			}
		}
	}
}

func TestSweep2DBestFits(t *testing.T) {
	_, _, grid, res := lanesDVGrid(t, perf.FormB)
	if res.Best == nil {
		t.Fatal("no best point")
	}
	if !res.Best.Fits {
		t.Error("best point does not fit")
	}
	for i := range grid {
		for _, p := range grid[i] {
			if p.Fits && p.EKIT > res.Best.EKIT {
				t.Errorf("(%d lanes, DV=%d) beats the selected best", p.Lanes, p.Est.DV)
			}
		}
	}
}

func TestSweep2DErrors(t *testing.T) {
	mdl, bw := fixtures(t)
	if _, err := exhaustive(mdl, bw, sorBuilder, perf.Workload{NKI: 1}, perf.FormA,
		LanesAxis(nil), DVAxis([]int{1})); err == nil {
		t.Error("empty lanes accepted")
	}
	if _, err := exhaustive(mdl, bw, sorBuilder, perf.Workload{NKI: 1}, perf.FormA,
		LanesAxis([]int{1}), DVAxis(nil)); err == nil {
		t.Error("empty DVs accepted")
	}
}

func TestEstimateVectorisedRejectsBadDV(t *testing.T) {
	mdl, _ := fixtures(t)
	m, err := sorBuilder(1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := mdl.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cm.EstimateVectorised(0); err == nil {
		t.Error("DV=0 accepted")
	}
}

func TestExtractUsesEstimateDV(t *testing.T) {
	mdl, bw := fixtures(t)
	m, err := sorBuilder(1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := mdl.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	est, err := cm.EstimateVectorised(4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := perf.Extract(est, bw, perf.Workload{NKI: 10})
	if err != nil {
		t.Fatal(err)
	}
	if p.DV != 4 {
		t.Errorf("extracted DV = %d, want 4", p.DV)
	}
	if _, err := perf.Extract(est, bw, perf.Workload{NKI: 10, DV: 2}); err == nil {
		t.Error("contradictory workload DV accepted")
	}
}
