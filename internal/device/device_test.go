package device

import (
	"math"
	"testing"
)

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{ALUTs: 1, Regs: 2, BRAM: 3, DSPs: 4}
	b := Resources{ALUTs: 10, Regs: 20, BRAM: 30, DSPs: 40}
	if got := a.Add(b); got != (Resources{11, 22, 33, 44}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Scale(3); got != (Resources{3, 6, 9, 12}) {
		t.Errorf("Scale = %v", got)
	}
}

// TestScaleOverflowSaturates is the regression for the BRAM-bits
// overflow: a large per-lane footprint times a high lane count must
// saturate, not wrap to a negative total that FitsIn would accept.
func TestScaleOverflowSaturates(t *testing.T) {
	perLane := Resources{ALUTs: 1000, Regs: 2000, BRAM: math.MaxInt/2 + 2, DSPs: 4}
	got := perLane.Scale(2)
	if got.BRAM != math.MaxInt {
		t.Errorf("overflowing Scale BRAM = %d, want saturation at MaxInt", got.BRAM)
	}
	if got.ALUTs != 2000 || got.Regs != 4000 || got.DSPs != 8 {
		t.Errorf("non-overflowing fields disturbed: %v", got)
	}
	if got.FitsIn(StratixVGSD8().Capacity) {
		t.Error("saturated design reported as fitting the GSD8")
	}
	if frac, _ := got.MaxUtilisation(StratixVGSD8().Capacity); frac <= 1 {
		t.Errorf("saturated design MaxUtilisation = %v, want > 1", frac)
	}
	// Saturated totals must stay saturated through Add, not wrap there
	// instead.
	if sum := got.Add(perLane); sum.BRAM != math.MaxInt {
		t.Errorf("Add after saturation wrapped to %d", sum.BRAM)
	}
	// A huge lane count against a realistic footprint.
	kernel := Resources{ALUTs: 500, Regs: 900, BRAM: 4 << 20, DSPs: 2}
	big := kernel.Scale(math.MaxInt / (4 << 20) * 2)
	if big.BRAM != math.MaxInt || big.BRAM < 0 {
		t.Errorf("high-lane Scale BRAM = %d, want MaxInt", big.BRAM)
	}
}

// TestInfeasibleResourceUtilisation is the regression for the
// zero-capacity bug: a design using a resource the device has none of
// must report it infeasible (+Inf), so MaxUtilisation and FitsIn agree.
func TestInfeasibleResourceUtilisation(t *testing.T) {
	noDSP := Resources{ALUTs: 1000, Regs: 1000, BRAM: 1000, DSPs: 0}
	design := Resources{ALUTs: 10, Regs: 10, BRAM: 10, DSPs: 2}
	if design.FitsIn(noDSP) {
		t.Fatal("design with DSPs fits a DSP-less device")
	}
	_, _, _, d := design.Utilisation(noDSP)
	if !math.IsInf(d, 1) {
		t.Errorf("DSP utilisation on a DSP-less device = %v, want +Inf", d)
	}
	frac, name := design.MaxUtilisation(noDSP)
	if !math.IsInf(frac, 1) || name != "DSPs" {
		t.Errorf("MaxUtilisation = %v %s, want +Inf DSPs", frac, name)
	}
}

// TestFitsInAgreesWithMaxUtilisation: fraction > 1 on the binding
// resource exactly when the design does not fit, including zero
// capacities.
func TestFitsInAgreesWithMaxUtilisation(t *testing.T) {
	caps := []Resources{
		{100, 100, 100, 100},
		{100, 100, 100, 0},
		{0, 100, 100, 100},
	}
	designs := []Resources{
		{}, {50, 50, 50, 0}, {100, 100, 100, 100}, {101, 0, 0, 0}, {0, 0, 0, 1},
	}
	for _, c := range caps {
		for _, r := range designs {
			frac, _ := r.MaxUtilisation(c)
			if fits := r.FitsIn(c); fits != (frac <= 1) {
				t.Errorf("FitsIn(%v in %v) = %v but MaxUtilisation = %v", r, c, fits, frac)
			}
		}
	}
}

func TestFitsIn(t *testing.T) {
	cap := Resources{ALUTs: 100, Regs: 100, BRAM: 100, DSPs: 100}
	if !(Resources{100, 100, 100, 100}).FitsIn(cap) {
		t.Error("exact fit rejected")
	}
	for _, r := range []Resources{
		{101, 0, 0, 0}, {0, 101, 0, 0}, {0, 0, 101, 0}, {0, 0, 0, 101},
	} {
		if r.FitsIn(cap) {
			t.Errorf("%v should not fit", r)
		}
	}
}

func TestUtilisation(t *testing.T) {
	cap := Resources{ALUTs: 200, Regs: 400, BRAM: 100, DSPs: 0}
	a, r, b, d := (Resources{100, 100, 100, 100}).Utilisation(cap)
	if a != 0.5 || r != 0.25 || b != 1.0 {
		t.Errorf("utilisation = %v %v %v", a, r, b)
	}
	if !math.IsInf(d, 1) {
		t.Errorf("using a zero-capacity resource should be infeasible (+Inf), got %v", d)
	}
	// An unused zero-capacity resource stays at 0: the device simply has
	// none and the design needs none.
	_, _, _, d = (Resources{100, 100, 100, 0}).Utilisation(cap)
	if d != 0 {
		t.Errorf("unused zero-capacity resource = %v, want 0", d)
	}
}

func TestMaxUtilisation(t *testing.T) {
	cap := Resources{ALUTs: 100, Regs: 100, BRAM: 100, DSPs: 100}
	frac, name := (Resources{10, 90, 40, 20}).MaxUtilisation(cap)
	if name != "Regs" || frac != 0.9 {
		t.Errorf("max utilisation = %v %s", frac, name)
	}
}

func TestBuiltinTargetsValidate(t *testing.T) {
	for _, tgt := range []*Target{StratixVGSD8(), Virtex7690T(), GSD8Edu()} {
		if err := tgt.Validate(); err != nil {
			t.Errorf("%s: %v", tgt.Name, err)
		}
	}
}

func TestValidateCatchesBadTargets(t *testing.T) {
	mutations := []func(*Target){
		func(t *Target) { t.Name = "" },
		func(t *Target) { t.Capacity.ALUTs = 0 },
		func(t *Target) { t.FmaxHz = 0 },
		func(t *Target) { t.DRAM.PeakBandwidth = 0 },
		func(t *Target) { t.Link.PeakBandwidth = 0 },
		func(t *Target) { t.FmaxHz = math.NaN() },
		func(t *Target) { t.DRAM.PeakBandwidth = math.NaN() },
		func(t *Target) { t.Link.PeakBandwidth = math.NaN() },
		func(t *Target) { t.BRAMBlock = 0 },
		func(t *Target) { t.DSPWidth = 0 },
	}
	for i, mut := range mutations {
		tgt := StratixVGSD8()
		mut(tgt)
		if err := tgt.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestByName(t *testing.T) {
	for _, alias := range []string{"stratix-v-gsd8", "stratix-v", "maia"} {
		tgt, err := ByName(alias)
		if err != nil || tgt.Family != "stratix-v" {
			t.Errorf("ByName(%q): %v", alias, err)
		}
	}
	for _, alias := range []string{"virtex-7-690t", "virtex-7", "adm-pcie-7v3"} {
		tgt, err := ByName(alias)
		if err != nil || tgt.Family != "virtex-7" {
			t.Errorf("ByName(%q): %v", alias, err)
		}
	}
	if _, err := ByName("cyclone-ii"); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestEduTargetIsScaled(t *testing.T) {
	full := StratixVGSD8()
	edu := GSD8Edu()
	if edu.Capacity.ALUTs >= full.Capacity.ALUTs/10 {
		t.Error("edu target should be drastically smaller than the GSD8")
	}
	if edu.Name == full.Name {
		t.Error("edu target must be distinguishable by name")
	}
}

func TestHostCPU(t *testing.T) {
	cpu := IntelI7Quad16()
	if cpu.ClockHz != 1.6e9 {
		t.Errorf("the paper's host runs at 1.6 GHz, got %v", cpu.ClockHz)
	}
	if cpu.IPC <= 0 || cpu.DeltaWatts <= 0 || cpu.MemBWBytesPerS <= 0 {
		t.Error("host CPU model has non-positive parameters")
	}
}
