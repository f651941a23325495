package dse

import (
	"testing"

	"repro/internal/perf"
)

func sweep2d(t *testing.T, form perf.Form) *Sweep2D {
	t.Helper()
	mdl, bw := fixtures(t)
	res, err := exhaustive(mdl, bw, sorBuilder, perf.Workload{NKI: 10}, form,
		LanesAxis([]int{1, 2, 4}), DVAxis([]int{1, 2, 4}))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := res.Sweep2D(form)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestVectorisationSharesControl(t *testing.T) {
	// At the same work-items/cycle, (1 lane, DV=4) must cost less logic
	// than (4 lanes, DV=1): the vectorised lane shares stream control
	// and offset windows.
	sw := sweep2d(t, perf.FormC)
	lane1dv4 := sw.Points[0][2]
	lane4dv1 := sw.Points[2][0]
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
	sw := sweep2d(t, perf.FormC)
	e14 := sw.Points[0][2].EKIT
	e41 := sw.Points[2][0].EKIT
	ratio := e14 / e41
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("EKIT(1,4)/EKIT(4,1) = %.3f, want ~1", ratio)
	}
}

func TestVectorisationMonotoneCostAndSpeed(t *testing.T) {
	sw := sweep2d(t, perf.FormC)
	for i := range sw.Lanes {
		for j := 1; j < len(sw.DVs); j++ {
			if sw.Points[i][j].Est.Used.ALUTs <= sw.Points[i][j-1].Est.Used.ALUTs {
				t.Errorf("(%d lanes) ALUTs not increasing with DV", sw.Lanes[i])
			}
			if sw.Points[i][j].EKIT < sw.Points[i][j-1].EKIT {
				t.Errorf("(%d lanes) EKIT decreasing with DV while compute-bound", sw.Lanes[i])
			}
		}
	}
}

func TestSweep2DBestFits(t *testing.T) {
	sw := sweep2d(t, perf.FormB)
	if sw.Best == nil {
		t.Fatal("no best point")
	}
	if !sw.Best.Fits {
		t.Error("best point does not fit")
	}
	for i := range sw.Points {
		for _, p := range sw.Points[i] {
			if p.Fits && p.EKIT > sw.Best.EKIT {
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
	if _, err := mdl.EstimateVectorised(m, 0); err == nil {
		t.Error("DV=0 accepted")
	}
}

func TestExtractUsesEstimateDV(t *testing.T) {
	mdl, bw := fixtures(t)
	m, err := sorBuilder(1)
	if err != nil {
		t.Fatal(err)
	}
	est, err := mdl.EstimateVectorised(m, 4)
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
