package perf

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/membw"
)

// baseParams is a plausible mid-size design point used by the equation
// tests.
func baseParams() Params {
	return Params{
		HPB: 3.2e9, RhoH: 0.8,
		GPB: 38.4e9, RhoG: 0.7,
		NGS: 1 << 20, NWPT: 3, NKI: 1000,
		Noff: 150, KPD: 20,
		FD: 200e6, NTO: 1, NI: 25, KNL: 4, DV: 1,
		WordBytes: 4, Pipelined: true,
	}
}

func TestFormOrdering(t *testing.T) {
	// Form A pays host transfer every instance, form B amortises it,
	// form C drops the DRAM bound: EKIT must be ordered A <= B <= C.
	p := baseParams()
	a, _, err := p.EKIT(FormA)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := p.EKIT(FormB)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := p.EKIT(FormC)
	if err != nil {
		t.Fatal(err)
	}
	if !(a <= b && b <= c) {
		t.Errorf("EKIT ordering violated: A=%.3g B=%.3g C=%.3g", a, b, c)
	}
	if a <= 0 {
		t.Error("EKIT must be positive")
	}
}

func TestFormOrderingProperty(t *testing.T) {
	f := func(ngsRaw uint16, lanesRaw, nkiRaw uint8) bool {
		p := baseParams()
		p.NGS = int64(ngsRaw) + 1
		p.KNL = int(lanesRaw)%16 + 1
		p.NKI = int64(nkiRaw) + 1
		a, _, e1 := p.EKIT(FormA)
		b, _, e2 := p.EKIT(FormB)
		c, _, e3 := p.EKIT(FormC)
		return e1 == nil && e2 == nil && e3 == nil && a <= b && b <= c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormAHostWall(t *testing.T) {
	// With a slow host link and many lanes, form A must be limited by
	// host bandwidth — the paper's "communication wall (host-streams)"
	// at ~4 lanes in Fig 15.
	p := baseParams()
	p.KNL = 16
	_, bd, err := p.EKIT(FormA)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Limiter != LimitHostBandwidth {
		t.Errorf("limiter = %s, want host-bandwidth (host %.3g dram %.3g compute %.3g)",
			bd.Limiter, bd.HostXfer, bd.StreamDRAM, bd.Compute)
	}
}

func TestFormBMovesWallToDRAM(t *testing.T) {
	// Amortising the host transfer exposes the DRAM wall at high lane
	// counts (Fig 15: the DRAM wall at ~16 lanes).
	p := baseParams()
	p.KNL = 64
	_, bd, err := p.EKIT(FormB)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Limiter != LimitDRAMBandwidth {
		t.Errorf("limiter = %s, want dram-bandwidth", bd.Limiter)
	}
}

func TestFormCComputeBound(t *testing.T) {
	p := baseParams()
	p.KNL = 1
	_, bd, err := p.EKIT(FormC)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Limiter != LimitCompute {
		t.Errorf("limiter = %s, want compute for form C at one lane", bd.Limiter)
	}
	if bd.StreamDRAM != 0 {
		t.Errorf("form C must not carry a DRAM streaming term, got %v", bd.StreamDRAM)
	}
}

// TestLimiterString pins the words the limit columns and the "limited
// by" lines print, and the empty zero value.
func TestLimiterString(t *testing.T) {
	for l, want := range map[Limiter]string{
		0:                  "",
		LimitCompute:       "compute",
		LimitDRAMBandwidth: "dram-bandwidth",
		LimitHostBandwidth: "host-bandwidth",
	} {
		if got := l.String(); got != want {
			t.Errorf("Limiter(%d).String() = %q, want %q", uint8(l), got, want)
		}
	}
}

func TestLanesScaleComputeUntilWall(t *testing.T) {
	// Doubling lanes in the compute-bound regime should nearly double
	// EKIT; past the bandwidth wall it must not.
	p := baseParams()
	p.KNL = 1
	e1, bd1, _ := p.EKIT(FormB)
	if bd1.Limiter != LimitCompute {
		t.Fatalf("expected compute-bound at 1 lane, got %s", bd1.Limiter)
	}
	p.KNL = 2
	e2, _, _ := p.EKIT(FormB)
	if ratio := e2 / e1; ratio < 1.8 || ratio > 2.05 {
		t.Errorf("2-lane speedup %.3f, want ~2 while compute-bound", ratio)
	}
	p.KNL = 256
	e256, bd256, _ := p.EKIT(FormB)
	p.KNL = 512
	e512, _, _ := p.EKIT(FormB)
	if bd256.Limiter == LimitCompute {
		t.Fatal("256 lanes should be past the bandwidth wall")
	}
	if gain := e512 / e256; gain > 1.05 {
		t.Errorf("past the wall, doubling lanes still gained %.2fx", gain)
	}
}

func TestNKIAmortisation(t *testing.T) {
	// More kernel-instance repetitions improve form B (host transfer
	// amortised) but leave form A untouched.
	p := baseParams()
	p.NKI = 1
	a1, _, _ := p.EKIT(FormA)
	b1, _, _ := p.EKIT(FormB)
	p.NKI = 1000
	a2, _, _ := p.EKIT(FormA)
	b2, _, _ := p.EKIT(FormB)
	if a1 != a2 {
		t.Errorf("form A changed with NKI: %v vs %v", a1, a2)
	}
	if b2 <= b1 {
		t.Errorf("form B did not improve with NKI: %v vs %v", b1, b2)
	}
}

func TestFillTermsMatterAtSmallSizes(t *testing.T) {
	// At tiny NGS the offset/pipeline fill terms are a visible fraction
	// of the instance time (the small-grid regime of Fig 17); at large
	// NGS they vanish.
	p := baseParams()
	p.NGS = 512
	_, small, _ := p.EKIT(FormB)
	p.NGS = 1 << 24
	_, large, _ := p.EKIT(FormB)
	fillSmall := (small.OffsetFill + small.PipeFill) / small.Total
	fillLarge := (large.OffsetFill + large.PipeFill) / large.Total
	if fillSmall < 10*fillLarge {
		t.Errorf("fill fraction small=%.4f large=%.4f: fills should dominate only small grids",
			fillSmall, fillLarge)
	}
}

func TestParamsValidate(t *testing.T) {
	good := baseParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.HPB = 0 },
		func(p *Params) { p.RhoH = 0 },
		func(p *Params) { p.RhoG = 1.5 },
		func(p *Params) { p.NGS = 0 },
		func(p *Params) { p.NWPT = 0 },
		func(p *Params) { p.NKI = 0 },
		func(p *Params) { p.FD = -1 },
		func(p *Params) { p.KNL = 0 },
		func(p *Params) { p.DV = 0 },
		func(p *Params) { p.Noff = -1 },
		func(p *Params) { p.HPB = math.NaN() },
		func(p *Params) { p.GPB = math.NaN() },
		func(p *Params) { p.RhoH = math.NaN() },
		func(p *Params) { p.RhoG = math.NaN() },
		func(p *Params) { p.FD = math.NaN() },
	}
	for i, mut := range mutations {
		p := baseParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, _, err := p.EKIT(FormB); err == nil {
			t.Errorf("mutation %d: EKIT accepted invalid params", i)
		}
	}
}

func TestCyclesPerItem(t *testing.T) {
	p := baseParams()
	if got := p.CyclesPerItem(); got != 1 {
		t.Errorf("pipelined lane = %v cycles/item, want 1", got)
	}
	p.Pipelined = false
	if got := p.CyclesPerItem(); got != p.NTO*float64(p.NI) {
		t.Errorf("sequential PE = %v, want NTO*NI = %v", got, p.NTO*float64(p.NI))
	}
}

func TestParseForm(t *testing.T) {
	for _, s := range []string{"A", "form-B", "c"} {
		if _, err := ParseForm(s); err != nil {
			t.Errorf("ParseForm(%q): %v", s, err)
		}
	}
	if _, err := ParseForm("D"); err == nil {
		t.Error("ParseForm(D) accepted")
	}
	if FormA.String() != "form-A" || FormC.String() != "form-C" {
		t.Error("Form.String spelling changed")
	}
}

var (
	extractOnce sync.Once
	extractBW   *membw.Model
	extractMdl  *costmodel.Model
	extractErr  error
)

func extractFixtures(t *testing.T) (*costmodel.Model, *membw.Model) {
	t.Helper()
	extractOnce.Do(func() {
		tgt := device.StratixVGSD8()
		extractMdl, extractErr = costmodel.Calibrate(tgt)
		if extractErr != nil {
			return
		}
		extractBW, extractErr = membw.Build(tgt)
	})
	if extractErr != nil {
		t.Fatal(extractErr)
	}
	return extractMdl, extractBW
}

func TestExtractFromSOR(t *testing.T) {
	mdl, bw := extractFixtures(t)
	spec := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 4}
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	est, err := mdl.Estimate(elaborate(t, m))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Extract(est, bw, Workload{NKI: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if p.KNL != 4 {
		t.Errorf("KNL = %d, want 4", p.KNL)
	}
	if p.NWPT != 3 {
		t.Errorf("NWPT = %d, want 3 (p, rhs, p_new)", p.NWPT)
	}
	if p.NGS != spec.GlobalSize() {
		t.Errorf("NGS = %d, want %d", p.NGS, spec.GlobalSize())
	}
	if p.Noff != 150 {
		t.Errorf("Noff = %d, want 150 (the k-plane look-ahead)", p.Noff)
	}
	if !p.Pipelined {
		t.Error("SOR lanes are pipelined")
	}
	if p.WordBytes != 3 {
		t.Errorf("WordBytes = %d, want 3 (ui18 packs to 3 bytes)", p.WordBytes)
	}
	if _, _, err := p.EKIT(FormB); err != nil {
		t.Errorf("extracted params do not evaluate: %v", err)
	}
}

func TestExtractRejectsBadWorkload(t *testing.T) {
	mdl, bw := extractFixtures(t)
	spec := kernels.DefaultLavaMD()
	m, _ := spec.Module()
	est, err := mdl.Estimate(elaborate(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Extract(est, bw, Workload{NKI: 0}); err == nil {
		t.Error("NKI=0 accepted")
	}
}

// TestInventoryParamsRejectsOtherDesign: an inventory prices only
// estimates of the module and lane count it was taken from; Extract's
// composition always matches, a kept Inventory must be checked.
func TestInventoryParamsRejectsOtherDesign(t *testing.T) {
	mdl, bw := extractFixtures(t)
	module := func(lanes int) *costmodel.Estimate {
		t.Helper()
		m, err := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: lanes}.Module()
		if err != nil {
			t.Fatal(err)
		}
		est, err := mdl.Estimate(elaborate(t, m))
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	est2, est4 := module(2), module(4)
	inv := NewInventory(est2.Module, est2.Lanes, bw)
	if _, err := inv.Params(est2, Workload{NKI: 10}); err != nil {
		t.Fatalf("own estimate: %v", err)
	}
	if _, err := inv.Params(est4, Workload{NKI: 10}); err == nil {
		t.Error("2-lane inventory priced a 4-lane estimate")
	}
	other := module(2)
	if _, err := inv.Params(other, Workload{NKI: 10}); err == nil {
		t.Error("inventory priced an estimate of another module")
	}
}
