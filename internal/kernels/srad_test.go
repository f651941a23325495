package kernels

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/fabric"
)

func TestSRADMatchesGolden(t *testing.T) {
	spec := SRADSpec{Rows: 24, Cols: 19, Lanes: 1}
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	full := spec.MakeInputs(21)
	mem, err := BindInputs(full, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := simulate(t, m, mem)
	want, wantAcc := spec.Golden(full)
	got, err := CollectOutput(res.Mem, "img_new", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want["img_new"] {
		if got[i] != want["img_new"][i] {
			t.Fatalf("img_new[%d] = %d, want %d", i, got[i], want["img_new"][i])
		}
	}
	if res.Acc["cSum"] != wantAcc["cSum"] {
		t.Errorf("cSum = %d, want %d", res.Acc["cSum"], wantAcc["cSum"])
	}
}

func TestSRADClampActuallyEngages(t *testing.T) {
	// The select paths must be exercised in both directions: a flat
	// image yields maximal coefficients (ceiling clamp), a noisy image
	// yields zero coefficients at steep gradients (floor clamp).
	spec := SRADSpec{Rows: 8, Cols: 9, Lanes: 1}
	n := int(spec.GlobalSize())

	flat := make([]int64, n)
	for i := range flat {
		flat[i] = 2000
	}
	outFlat, accFlat := spec.Golden(map[string][]int64{"img": flat})
	// Interior of a flat image: zero gradient -> c = min(K, CMAX) = CMAX.
	if accFlat["cSum"] == 0 {
		t.Error("flat image should produce non-zero coefficients")
	}
	_ = outFlat

	spiky := make([]int64, n)
	for i := range spiky {
		if i%2 == 0 {
			spiky[i] = 4000
		}
	}
	_, accSpiky := spec.Golden(map[string][]int64{"img": spiky})
	if accSpiky["cSum"] >= accFlat["cSum"] {
		t.Errorf("steep gradients (cSum %d) should suppress diffusion vs flat (cSum %d)",
			accSpiky["cSum"], accFlat["cSum"])
	}
}

func TestSRADAccuracyTableIIStyle(t *testing.T) {
	// The fourth kernel passes the same estimated-vs-actual bar as the
	// paper's three (the conclusion's "larger and more complex kernels").
	tgt := device.StratixVGSD8()
	mdl, err := costmodel.Calibrate(tgt)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultSRAD()
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	est, err := mdl.Estimate(elaborate(t, m))
	if err != nil {
		t.Fatal(err)
	}
	nl := fabric.New(tgt).Synthesize(elaborate(t, m))
	check := func(name string, e, a, maxPct int) {
		t.Helper()
		err := 0.0
		if a != 0 {
			err = 100 * abs(e-a) / float64(a)
		} else if e != 0 {
			err = 100
		}
		t.Logf("%-4s est=%6d actual=%6d err=%.1f%%", name, e, a, err)
		if err > float64(maxPct) {
			t.Errorf("%s error %.1f%% over %d%%", name, err, maxPct)
		}
	}
	check("ALUT", est.Used.ALUTs, nl.Used.ALUTs, 8)
	check("REG", est.Used.Regs, nl.Used.Regs, 10)
	check("BRAM", est.Used.BRAM, nl.Used.BRAM, 5)
	check("DSP", est.Used.DSPs, nl.Used.DSPs, 5)
	if est.Used.DSPs == 0 {
		t.Error("the gradient squares should use DSP multipliers")
	}

	mem, err := BindInputs(spec.MakeInputs(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	sim := simulate(t, m, mem)
	cpki := est.CPKI(spec.GlobalSize())
	diff := 100 * abs64(cpki-sim.Cycles) / float64(sim.Cycles)
	t.Logf("CPKI est=%d actual=%d err=%.2f%%", cpki, sim.Cycles, diff)
	if diff > 5 {
		t.Errorf("CPKI error %.2f%% over 5%%", diff)
	}
}

func TestSRADMultiLaneInterior(t *testing.T) {
	spec := SRADSpec{Rows: 32, Cols: 19, Lanes: 4}
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	full := spec.MakeInputs(5)
	mem, err := BindInputs(full, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := simulate(t, m, mem)
	want, _ := spec.Golden(full)
	got, err := CollectOutput(res.Mem, "img_new", 4)
	if err != nil {
		t.Fatal(err)
	}
	interior := 0
	for i := range got {
		if !spec.InteriorIndex(int64(i)) {
			continue
		}
		interior++
		if got[i] != want["img_new"][i] {
			t.Fatalf("interior img_new[%d] = %d, want %d", i, got[i], want["img_new"][i])
		}
	}
	if interior == 0 {
		t.Fatal("no interior points checked")
	}
}

func TestSRADValidation(t *testing.T) {
	if _, err := (SRADSpec{}).Module(); err == nil {
		t.Error("zero spec accepted")
	}
	if _, err := (SRADSpec{Rows: 10, Cols: 10, Lanes: 3}).Module(); err == nil {
		t.Error("non-divisible lanes accepted")
	}
}

func abs(v int) float64 {
	if v < 0 {
		return float64(-v)
	}
	return float64(v)
}

func abs64(v int64) float64 {
	if v < 0 {
		return float64(-v)
	}
	return float64(v)
}
