package kernels

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/fabric"
	"repro/internal/hdl"
	"repro/internal/tir"
)

func TestSORF32Builds(t *testing.T) {
	m, err := DefaultSORF32().Module()
	if err != nil {
		t.Fatal(err)
	}
	if n := elaborate(t, m).Lanes(); n != 1 {
		t.Errorf("lanes = %d", n)
	}
	// Multi-lane variant too.
	m4, err := SORF32Spec{IM: 96, JM: 96, KM: 96, Lanes: 4}.Module()
	if err != nil {
		t.Fatal(err)
	}
	if n := elaborate(t, m4).Lanes(); n != 4 {
		t.Errorf("lanes = %d", n)
	}
}

func TestSORF32CostsAndSynthesises(t *testing.T) {
	tgt := device.StratixVGSD8()
	mdl, err := costmodel.Calibrate(tgt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DefaultSORF32().Module()
	if err != nil {
		t.Fatal(err)
	}
	est, err := mdl.Estimate(elaborate(t, m))
	if err != nil {
		t.Fatal(err)
	}
	nl := fabric.New(tgt).Synthesize(elaborate(t, m))
	// Float units dominate: an f32 lane is DSP- and ALUT-heavy.
	if est.Used.DSPs == 0 || nl.Used.DSPs == 0 {
		t.Error("f32 multipliers should map to DSP elements")
	}
	// The estimate still tracks the substrate.
	for _, pair := range [][2]int{
		{est.Used.ALUTs, nl.Used.ALUTs},
		{est.Used.Regs, nl.Used.Regs},
	} {
		e := float64(pair[0]-pair[1]) / float64(pair[1])
		if e < -0.12 || e > 0.12 {
			t.Errorf("f32 estimate off by %.1f%% (%d vs %d)", e*100, pair[0], pair[1])
		}
	}
	// Deeper pipeline: IEEE cores are multi-cycle.
	intEst, _ := mdl.Estimate(elaborate(t, mustModule(t, DefaultSOR())))
	if est.KPD <= intEst.KPD {
		t.Errorf("f32 KPD %d should exceed integer KPD %d", est.KPD, intEst.KPD)
	}
}

func TestF32LaneJustifiesEduScaling(t *testing.T) {
	// The quantitative justification for the Fig 15 substitution: one
	// f32 SOR lane costs tens of times the integer lane's ALUTs, so on
	// the full GSD8 the paper's kernel hits its compute wall at single-
	// digit lanes while the integer kernel would need hundreds.
	tgt := device.StratixVGSD8()
	mdl, err := costmodel.Calibrate(tgt)
	if err != nil {
		t.Fatal(err)
	}
	intSpec := SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 1}
	fEst, err := mdl.Estimate(elaborate(t, mustModule(t, DefaultSORF32())))
	if err != nil {
		t.Fatal(err)
	}
	iEst, err := mdl.Estimate(elaborate(t, mustModule(t, intSpec)))
	if err != nil {
		t.Fatal(err)
	}
	shim := mdl.ShimALUTs
	ratio := float64(fEst.Used.ALUTs-shim) / float64(iEst.Used.ALUTs-shim)
	if ratio < 10 {
		t.Errorf("f32/int lane ALUT ratio = %.1f; the Fig 15 scaling rests on a large gap", ratio)
	}
	t.Logf("f32 lane %d ALUTs vs integer lane %d ALUTs (%.0fx)",
		fEst.Used.ALUTs-shim, iEst.Used.ALUTs-shim, ratio)
}

func TestSORF32EmitsHDL(t *testing.T) {
	m, err := SORF32Spec{IM: 16, JM: 16, KM: 4, Lanes: 1}.Module()
	if err != nil {
		t.Fatal(err)
	}
	src, err := hdl.Emit(elaborate(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if len(src) < 1000 {
		t.Error("implausibly small HDL for the f32 kernel")
	}
}

func TestSORF32Validation(t *testing.T) {
	if _, err := (SORF32Spec{}).Module(); err == nil {
		t.Error("zero spec accepted")
	}
	if _, err := (SORF32Spec{IM: 10, JM: 10, KM: 10, Lanes: 3}).Module(); err == nil {
		t.Error("non-divisible lanes accepted")
	}
}

func mustModule[T interface{ Module() (*tir.Module, error) }](t *testing.T, spec T) *tir.Module {
	t.Helper()
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	return m
}
