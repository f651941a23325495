package costmodel

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/fabric"
	"repro/internal/tir"
)

func testModel(t *testing.T) *Model {
	t.Helper()
	m, err := Calibrate(device.StratixVGSD8())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCalibrateDividerFitMatchesPaper(t *testing.T) {
	// The paper fits a quadratic through synthesis points at 18, 32 and
	// 64 bits and reads 654 ALUTs at 24 bits off the trend line, against
	// an actual usage of 652 (§V-A, Fig 9).
	m := testModel(t)

	// The fitted curve must be close to x^2 + 3.7x - 10.6.
	// Tolerances reflect that the probe points are integer-rounded
	// synthesis results, which perturbs the recovered constant term most.
	wantCoeffs := []float64{-10.6, 3.7, 1}
	tols := []float64{1.5, 0.2, 0.02}
	for i, want := range wantCoeffs {
		if got := m.DivFit.Coeffs[i]; math.Abs(got-want) > tols[i] {
			t.Errorf("divider fit coeff %d = %.3f, want ~%.1f", i, got, want)
		}
	}

	est := m.DivFit.EvalInt(24)
	actual := fabric.DivALUTs(24)
	if est < 650 || est > 658 {
		t.Errorf("estimated 24-bit divider = %d ALUTs, want ~654", est)
	}
	if actual != 652 {
		t.Errorf("actual 24-bit divider = %d ALUTs, want 652", actual)
	}
	if est == actual {
		t.Error("estimate coincides with actual; the fit should differ slightly from packed reality")
	}
	if d := math.Abs(float64(est - actual)); d > 4 {
		t.Errorf("estimate off by %.0f ALUTs; paper reports a 2-ALUT gap", d)
	}
}

func TestCalibrateInterpolatesFitPointsExactly(t *testing.T) {
	// At the calibration widths themselves, the quadratic passes through
	// the measured points (exact interpolation from three points).
	m := testModel(t)
	for _, w := range divFitWidths {
		want := fabric.ProbeOp(m.Target, tir.OpDiv, w).ALUTs
		if got := m.DivFit.EvalInt(float64(w)); got != want {
			t.Errorf("divider fit at calibration width %d = %d, want %d", w, got, want)
		}
	}
}

func TestCalibrateMulStepBoundaries(t *testing.T) {
	// The multiplier DSP step function must reproduce the Fig 9
	// discontinuities: 1 element through 18 bits, then jumps.
	m := testModel(t)
	mul := m.Ops[tir.OpMul]
	cases := []struct {
		w    int
		want int
	}{
		{8, 1}, {18, 1}, {20, 2}, {27, 2}, {32, 4}, {36, 4}, {48, 6}, {64, 8},
	}
	for _, c := range cases {
		if got := mul.DSP.Eval(float64(c.w)); got != c.want {
			t.Errorf("mul DSPs at %d bits = %d, want %d", c.w, got, c.want)
		}
	}
	// No glue ALUTs while the product fits one DSP element.
	if got := mul.ALUT.EvalInt(18); got != 0 {
		t.Errorf("mul ALUTs at 18 bits = %d, want 0", got)
	}
	if got := mul.ALUT.EvalInt(32); got <= 0 {
		t.Errorf("mul ALUTs at 32 bits = %d, want > 0", got)
	}
}

func TestCalibrateCoversAllIntOps(t *testing.T) {
	m := testModel(t)
	for _, op := range []tir.Opcode{
		tir.OpAdd, tir.OpSub, tir.OpMul, tir.OpDiv, tir.OpRem,
		tir.OpAnd, tir.OpOr, tir.OpXor, tir.OpShl, tir.OpLshr, tir.OpAshr,
		tir.OpMin, tir.OpMax, tir.OpAbs, tir.OpNot, tir.OpRecip, tir.OpSqrt,
		tir.OpFAdd, tir.OpFSub, tir.OpFMul, tir.OpFDiv,
	} {
		oc, ok := m.Ops[op]
		if !ok {
			t.Errorf("opcode %s not calibrated", op)
			continue
		}
		if oc.ALUT == nil || oc.Reg == nil {
			t.Errorf("opcode %s missing fitted expressions", op)
		}
	}
}

func TestCalibrateTracksProbesAtSampledWidths(t *testing.T) {
	// Property: at every calibration width, the fitted piece-wise-linear
	// expressions reproduce the probe exactly (they interpolate their own
	// sample points).
	m := testModel(t)
	for _, op := range []tir.Opcode{tir.OpAdd, tir.OpMul, tir.OpAnd, tir.OpMin, tir.OpSqrt} {
		for _, w := range calWidths {
			probe := fabric.ProbeOp(m.Target, op, w)
			got := m.Ops[op].Resources(w)
			if got.ALUTs != probe.ALUTs || got.Regs != probe.Regs || got.DSPs != probe.DSPs {
				t.Errorf("%s at %d bits: model %v, probe %v", op, w, got, probe)
			}
		}
	}
}

func TestCalibrateInterpolationErrorSmall(t *testing.T) {
	// Between calibration widths the model must stay close to the probe:
	// the paper's whole premise is that the fabric is regular enough for
	// sparse sampling.
	m := testModel(t)
	for _, op := range []tir.Opcode{tir.OpAdd, tir.OpMul, tir.OpDiv} {
		lo := 4
		if op == tir.OpDiv {
			lo = divFitWidths[0] // the quadratic is fitted from 18 bits up
		}
		for w := lo; w <= 64; w++ {
			probe := fabric.ProbeOp(m.Target, op, w)
			got := m.Ops[op].Resources(w)
			if probe.ALUTs < 16 {
				continue // relative error meaningless on tiny ops
			}
			relErr := math.Abs(float64(got.ALUTs-probe.ALUTs)) / float64(probe.ALUTs)
			if relErr > 0.10 {
				t.Errorf("%s at %d bits: model %d ALUTs vs probe %d (%.0f%% error)",
					op, w, got.ALUTs, probe.ALUTs, relErr*100)
			}
		}
	}
}

// TestCalibrateDeterministic: calibrating a target twice gives equal
// models. The evaluation store archives no cost model and recalibrates
// it on load, so a warm run prices like the cold run that wrote the
// store only because Calibrate depends on nothing but the target.
func TestCalibrateDeterministic(t *testing.T) {
	for _, name := range device.Names() {
		var models [2]*Model
		for i := range models {
			tgt, err := device.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if models[i], err = Calibrate(tgt); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(models[0], models[1]) {
			t.Errorf("%s: two calibrations differ", name)
		}
	}
}

func TestCalibrateRejectsInvalidTarget(t *testing.T) {
	if _, err := Calibrate(&device.Target{}); err == nil {
		t.Error("want error for invalid target")
	}
}

func TestCSDDigits(t *testing.T) {
	cases := []struct {
		k    int64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 1},   // 10
		{3, 2},   // 10-1
		{5, 2},   // 101
		{7, 2},   // 100-1
		{15, 2},  // 1000-1
		{-15, 2}, // magnitude
		{255, 2},
		{0b101010101, 5},
	}
	for _, c := range cases {
		if got := CSDDigits(c.k); got != c.want {
			t.Errorf("CSDDigits(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestCSDDigitsProperty(t *testing.T) {
	// Property: CSD uses at most as many non-zero digits as plain binary,
	// and at least 1 for any non-zero value.
	f := func(k int32) bool {
		n := CSDDigits(int64(k))
		if k == 0 {
			return n == 0
		}
		pop := 0
		u := uint64(k)
		if k < 0 {
			u = uint64(-int64(k))
		}
		for ; u != 0; u >>= 1 {
			pop += int(u & 1)
		}
		return n >= 1 && n <= pop
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstMulCostAgreesWithFabric(t *testing.T) {
	// Property: the model's constant-multiplier expression is exact
	// against the mapper for any constant and width.
	f := func(kRaw int16, wRaw uint8) bool {
		k := int64(kRaw)
		w := int(wRaw)%64 + 1
		return ConstMulALUTs(w, k) == fabric.ConstMulALUTs(w, k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
