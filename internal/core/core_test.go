package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/kernels"
	"repro/internal/perf"
	"repro/internal/pipesim"
	"repro/internal/tir"
)

var (
	ccOnce sync.Once
	cc     *Compiler
	ccErr  error
)

func compiler(t *testing.T) *Compiler {
	t.Helper()
	ccOnce.Do(func() { cc, ccErr = New(device.StratixVGSD8()) })
	if ccErr != nil {
		t.Fatal(ccErr)
	}
	return cc
}

func TestNewRejectsNil(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil target accepted")
	}
	if _, err := New(&device.Target{}); err == nil {
		t.Error("invalid target accepted")
	}
}

func TestEndToEndParseCostEmit(t *testing.T) {
	c := compiler(t)

	// Build SOR, print to surface syntax, re-parse through the compiler,
	// cost it and emit HDL: the full Fig 11 pipeline.
	spec := kernels.DefaultSOR()
	m0, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Parse("sor.tirl", m0.String())
	if err != nil {
		t.Fatal(err)
	}

	rep, err := c.Cost(d, perf.Workload{NKI: 1000}, perf.FormB)
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

	hdlSrc, err := c.EmitHDL(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hdlSrc, "module tytra_top_sor") {
		t.Error("HDL missing top module")
	}

	nl := c.Synthesize(d)
	if nl.Used.ALUTs <= 0 {
		t.Error("synthesis produced no logic")
	}
}

func TestCompilerSimulate(t *testing.T) {
	c := compiler(t)
	spec := kernels.LavaMDSpec{Pairs: 32, Lanes: 1}
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := kernels.BindInputs(spec.MakeInputs(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Simulate(elaborate(t, m), mem)
	if err != nil {
		t.Fatal(err)
	}
	want, wantAcc := spec.Golden(spec.MakeInputs(5))
	got, err := kernels.CollectOutput(res.Mem, "pot", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want["pot"] {
		if got[i] != want["pot"][i] {
			t.Fatalf("pot[%d] = %d, want %d", i, got[i], want["pot"][i])
		}
	}
	if res.Acc["potAcc"] != wantAcc["potAcc"] {
		t.Error("accumulator mismatch")
	}

	// A compiled design with one dedicated instance must agree with the
	// one-shot path across repeated kernel-instances.
	d, err := pipesim.Compile(elaborate(t, m))
	if err != nil {
		t.Fatal(err)
	}
	inst := d.NewInstance()
	for k := 0; k < 3; k++ {
		again, err := inst.Run(mem)
		if err != nil {
			t.Fatal(err)
		}
		if again.Cycles != res.Cycles || again.Acc["potAcc"] != res.Acc["potAcc"] {
			t.Fatalf("run %d: instance diverged from Simulate", k)
		}
	}
}

func TestCompilerExplore(t *testing.T) {
	c := compiler(t)
	build := func(lanes int) (*tir.Module, error) {
		return kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: lanes}.Module()
	}
	space, err := dse.NewSpace(dse.LanesAxis(dse.LaneCounts(4)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(dse.EvalModel, []*device.Target{c.Target}, nil, build, space,
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
	c := compiler(t)
	m, err := kernels.DefaultSOR().Module()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cost(elaborate(t, m), perf.Workload{NKI: 0}, perf.FormA); err == nil {
		t.Error("NKI=0 accepted")
	}
}

func TestFormCFeasibilityGate(t *testing.T) {
	c := compiler(t)
	// A small kernel fits on chip: form C accepted.
	small, err := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 1}.Module()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cost(elaborate(t, small), perf.Workload{NKI: 10}, perf.FormC); err != nil {
		t.Errorf("small working set rejected for form C: %v", err)
	}
	// A huge NDRange cannot be staged in block RAM: form C refused,
	// form B still fine (§III-5's definition of the forms).
	huge, err := kernels.SORSpec{IM: 15, JM: 10, KM: 96096, Lanes: 1}.Module()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cost(elaborate(t, huge), perf.Workload{NKI: 10}, perf.FormC); err == nil {
		t.Error("14M-point working set accepted for form C")
	}
	if _, err := c.Cost(elaborate(t, huge), perf.Workload{NKI: 10}, perf.FormB); err != nil {
		t.Errorf("form B rejected: %v", err)
	}
}
