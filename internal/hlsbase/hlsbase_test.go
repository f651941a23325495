package hlsbase

import "testing"

const iters = 1000 // the paper's nmaxp

func evaluate(t *testing.T) []Row {
	t.Helper()
	return NewCaseStudy().Evaluate(iters)
}

func rowAt(t *testing.T, rows []Row, dim int) Row {
	t.Helper()
	for _, r := range rows {
		if r.Dim == dim {
			return r
		}
	}
	t.Fatalf("no row for dim %d", dim)
	return Row{}
}

func TestFig17SmallGridReversal(t *testing.T) {
	// At the smallest grid both FPGA implementations lose to the CPU:
	// the per-call stream handling overhead dominates (§VII).
	r := rowAt(t, evaluate(t), 24)
	if r.Normalised[PlatformMaxJ] <= 1 {
		t.Errorf("maxJ at 24³ = %.2fx, should be slower than cpu", r.Normalised[PlatformMaxJ])
	}
	if r.Normalised[PlatformTytra] <= 1 {
		t.Errorf("tytra at 24³ = %.2fx, should be slower than cpu", r.Normalised[PlatformTytra])
	}
}

func TestFig17TytraWinsFrom48(t *testing.T) {
	// "Apart from the smallest grid-size, fpga-tytra consistently
	// outperforms fpga-maxJ as well as cpu."
	for _, dim := range []int{48, 96, 144, 192} {
		r := rowAt(t, evaluate(t), dim)
		if r.Normalised[PlatformTytra] >= 1 {
			t.Errorf("tytra at %d³ = %.2fx cpu, should win", dim, r.Normalised[PlatformTytra])
		}
		if r.Normalised[PlatformTytra] >= r.Normalised[PlatformMaxJ] {
			t.Errorf("tytra at %d³ = %.2fx not better than maxJ %.2fx",
				dim, r.Normalised[PlatformTytra], r.Normalised[PlatformMaxJ])
		}
	}
}

func TestFig17MaxJSlowerThanCPUAtTypicalGrid(t *testing.T) {
	// "At the typical grid-size where this kernel is used in weather
	// models (around 100 elements / dimension), the fpga-maxJ version is
	// slower than cpu, but fpga-tytra is ~2.75x faster."
	r := rowAt(t, evaluate(t), 96)
	if r.Normalised[PlatformMaxJ] <= 1 {
		t.Errorf("maxJ at 96³ = %.2fx, paper reports slower than cpu", r.Normalised[PlatformMaxJ])
	}
	speedup := 1 / r.Normalised[PlatformTytra]
	if speedup < 2.0 || speedup > 3.5 {
		t.Errorf("tytra at 96³ = %.2fx faster than cpu, paper reports ~2.75x", speedup)
	}
}

func TestFig17PeakImprovements(t *testing.T) {
	// "Up to 3.9x and 2.6x improvement over fpga-maxJ and cpu."
	rows := evaluate(t)
	bestVsMaxJ, bestVsCPU := 0.0, 0.0
	for _, r := range rows {
		if v := r.Normalised[PlatformMaxJ] / r.Normalised[PlatformTytra]; v > bestVsMaxJ {
			bestVsMaxJ = v
		}
		if v := 1 / r.Normalised[PlatformTytra]; v > bestVsCPU {
			bestVsCPU = v
		}
	}
	if bestVsMaxJ < 3.0 || bestVsMaxJ > 4.5 {
		t.Errorf("peak tytra-vs-maxJ = %.2fx, paper reports up to 3.9x", bestVsMaxJ)
	}
	if bestVsCPU < 2.2 || bestVsCPU > 3.5 {
		t.Errorf("peak tytra-vs-cpu = %.2fx, paper reports up to ~2.6x", bestVsCPU)
	}
}

func TestFig18EnergyShape(t *testing.T) {
	// "FPGAs very quickly overtake CPU-only solutions, and fpga-tytra
	// shows up to 11x and 2.9x power-efficiency improvement over cpu and
	// fpga-maxJ."
	rows := evaluate(t)
	// At the smallest grid the FPGAs are not yet energy-profitable.
	small := rowAt(t, rows, 24)
	if small.EnergyNorm[PlatformTytra] <= 1 {
		t.Errorf("tytra energy at 24³ = %.2fx, should exceed cpu", small.EnergyNorm[PlatformTytra])
	}
	// From 48³ both FPGAs beat the CPU on energy.
	for _, dim := range []int{48, 96, 144, 192} {
		r := rowAt(t, rows, dim)
		if r.EnergyNorm[PlatformMaxJ] >= 1 || r.EnergyNorm[PlatformTytra] >= 1 {
			t.Errorf("at %d³ FPGA energy not below cpu: maxJ %.2f tytra %.2f",
				dim, r.EnergyNorm[PlatformMaxJ], r.EnergyNorm[PlatformTytra])
		}
	}
	bestVsCPU, bestVsMaxJ := 0.0, 0.0
	for _, r := range rows {
		if v := 1 / r.EnergyNorm[PlatformTytra]; v > bestVsCPU {
			bestVsCPU = v
		}
		if v := r.EnergyNorm[PlatformMaxJ] / r.EnergyNorm[PlatformTytra]; v > bestVsMaxJ {
			bestVsMaxJ = v
		}
	}
	if bestVsCPU < 7 || bestVsCPU > 14 {
		t.Errorf("peak tytra energy advantage vs cpu = %.1fx, paper reports up to 11x", bestVsCPU)
	}
	if bestVsMaxJ < 2.4 || bestVsMaxJ > 3.4 {
		t.Errorf("peak tytra energy advantage vs maxJ = %.1fx, paper reports up to 2.9x", bestVsMaxJ)
	}
}

func TestRelativeResultsHoldAcrossNmaxp(t *testing.T) {
	// Footnote 4: "the relative performance and energy consumption
	// results hold across different values of nmaxp ... and changes only
	// with changing grid-size."
	cs := NewCaseStudy()
	for _, dim := range []int{48, 192} {
		base := cs.Seconds(PlatformTytra, dim, 1000) / cs.Seconds(PlatformCPU, dim, 1000)
		for _, n := range []int64{100, 5000} {
			r := cs.Seconds(PlatformTytra, dim, n) / cs.Seconds(PlatformCPU, dim, n)
			if rel := r / base; rel < 0.9 || rel > 1.1 {
				t.Errorf("dim %d nmaxp %d: relative runtime drifted %.3f vs nmaxp=1000", dim, n, rel)
			}
		}
	}
}

func TestPowerModel(t *testing.T) {
	cs := NewCaseStudy()
	cpu := cs.DeltaWatts(PlatformCPU)
	mj := cs.DeltaWatts(PlatformMaxJ)
	ty := cs.DeltaWatts(PlatformTytra)
	if !(cpu > ty && ty > mj && mj > 0) {
		t.Errorf("power ordering: cpu %.1fW, tytra %.1fW, maxJ %.1fW; want cpu > tytra > maxJ > 0", cpu, ty, mj)
	}
}

func TestPlatformString(t *testing.T) {
	if PlatformCPU.String() != "cpu" || PlatformMaxJ.String() != "fpga-maxJ" || PlatformTytra.String() != "fpga-tytra" {
		t.Error("platform labels changed")
	}
}
