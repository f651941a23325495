package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/fabric"
	"repro/internal/hdl"
	"repro/internal/kernels"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/tir"
)

var (
	modelsOnce sync.Once
	gsd8Model  *costmodel.Model
	gsd8BW     *membw.Model
	modelsErr  error
)

// models calibrates the GSD8's cost and bandwidth models once per test
// binary.
func models(t *testing.T) (*costmodel.Model, *membw.Model) {
	t.Helper()
	modelsOnce.Do(func() {
		target := device.StratixVGSD8()
		if gsd8Model, modelsErr = costmodel.Calibrate(target); modelsErr == nil {
			gsd8BW, modelsErr = membw.Build(target)
		}
	})
	if modelsErr != nil {
		t.Fatal(modelsErr)
	}
	return gsd8Model, gsd8BW
}

func TestEndToEndParseCostEmit(t *testing.T) {
	mdl, bw := models(t)

	// Build SOR, print to surface syntax, re-parse and elaborate it, cost
	// it and emit HDL: the full Fig 11 pipeline.
	spec := kernels.DefaultSOR()
	m0, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	m, err := tir.Parse("sor.tirl", m0.String())
	if err != nil {
		t.Fatal(err)
	}
	d := elaborate(t, m)

	rep, err := Cost(mdl, bw, d, perf.Workload{NKI: 1000}, perf.FormB)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EKIT <= 0 {
		t.Error("EKIT not positive")
	}
	if !rep.Est.Fits() {
		t.Error("SOR should fit the GSD8")
	}
	if rep.Params.Noff != 150 {
		t.Errorf("Noff = %d", rep.Params.Noff)
	}

	hdlSrc, err := hdl.Emit(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hdlSrc, "module tytra_top_sor") {
		t.Error("HDL missing top module")
	}

	nl := fabric.New(mdl.Target).Synthesize(d)
	if nl.Used.ALUTs <= 0 {
		t.Error("synthesis produced no logic")
	}
}

func TestCompilerExplore(t *testing.T) {
	build := func(lanes int) (*tir.Module, error) {
		return kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: lanes}.Module()
	}
	space, err := dse.NewSpace(dse.LanesAxis(dse.LaneCounts(4)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(dse.EvalModel, []*device.Target{device.StratixVGSD8()}, nil, build, space,
		perf.Workload{NKI: 100}, perf.FormB, dse.Exhaustive{}, 0, dse.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := res.Sweep(perf.FormB)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Best == nil {
		t.Fatal("no best variant")
	}
	if len(sw.Points) != 4 {
		t.Errorf("explored %d points, want 4", len(sw.Points))
	}
}

func TestCostRejectsBrokenWorkload(t *testing.T) {
	mdl, bw := models(t)
	m, err := kernels.DefaultSOR().Module()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Cost(mdl, bw, elaborate(t, m), perf.Workload{NKI: 0}, perf.FormA); err == nil {
		t.Error("NKI=0 accepted")
	}
}

func TestFormCFeasibilityGate(t *testing.T) {
	mdl, bw := models(t)
	// A small kernel fits on chip: form C accepted.
	small, err := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 1}.Module()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Cost(mdl, bw, elaborate(t, small), perf.Workload{NKI: 10}, perf.FormC); err != nil {
		t.Errorf("small working set rejected for form C: %v", err)
	}
	// A huge NDRange cannot be staged in block RAM: form C refused,
	// form B still fine (§III-5's definition of the forms).
	huge, err := kernels.SORSpec{IM: 15, JM: 10, KM: 96096, Lanes: 1}.Module()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Cost(mdl, bw, elaborate(t, huge), perf.Workload{NKI: 10}, perf.FormC); err == nil {
		t.Error("14M-point working set accepted for form C")
	}
	if _, err := Cost(mdl, bw, elaborate(t, huge), perf.Workload{NKI: 10}, perf.FormB); err != nil {
		t.Errorf("form B rejected: %v", err)
	}
}
