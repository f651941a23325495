package roofline

import (
	"math"
	"strings"
	"testing"

	"repro/internal/perf"
)

func baseParams() perf.Params {
	return perf.Params{
		HPB: 3.2e9, RhoH: 0.8,
		GPB: 38.4e9, RhoG: 0.7,
		NGS: 1 << 20, NWPT: 3, NKI: 1000,
		Noff: 150, KPD: 20,
		FD: 200e6, NTO: 1, NI: 25, KNL: 4, DV: 1,
		WordBytes: 3, Pipelined: true,
	}
}

func TestComputeRoofScalesWithLanes(t *testing.T) {
	p := baseParams()
	p1, err := FromParams(p, perf.FormB)
	if err != nil {
		t.Fatal(err)
	}
	p.KNL = 8
	p2, err := FromParams(p, perf.FormB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p2.ComputeRoof/p1.ComputeRoof-2) > 1e-9 {
		t.Errorf("doubling lanes should double the compute roof: %v vs %v", p1.ComputeRoof, p2.ComputeRoof)
	}
	// Intensity is a property of the kernel, not the variant.
	if p1.Intensity != p2.Intensity {
		t.Error("intensity changed with lane count")
	}
}

func TestAttainableIsMinOfRoofs(t *testing.T) {
	p := baseParams()
	pt, err := FromParams(p, perf.FormB)
	if err != nil {
		t.Fatal(err)
	}
	memBound := pt.Intensity * pt.MemRoofBytes
	want := math.Min(memBound, pt.ComputeRoof)
	if math.Abs(pt.Attainable-want) > 1e-6 {
		t.Errorf("attainable %v, want min(%v, %v)", pt.Attainable, memBound, pt.ComputeRoof)
	}
}

func TestFormAMoreConstrainedThanFormB(t *testing.T) {
	// The host link roof sits far below the DRAM roof, so form A's
	// attainable throughput can never exceed form B's.
	p := baseParams()
	a, err := FromParams(p, perf.FormA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromParams(p, perf.FormB)
	if err != nil {
		t.Fatal(err)
	}
	if a.Attainable > b.Attainable {
		t.Errorf("form A attainable %v above form B %v", a.Attainable, b.Attainable)
	}
	if a.MemRoofBytes >= b.MemRoofBytes {
		t.Error("host link roof should sit below the DRAM roof")
	}
}

func TestFormCComputeBound(t *testing.T) {
	pt, err := FromParams(baseParams(), perf.FormC)
	if err != nil {
		t.Fatal(err)
	}
	if pt.MemoryBound {
		t.Error("form C cannot be memory-bound")
	}
	if pt.Attainable != pt.ComputeRoof {
		t.Error("form C attainable must equal the compute roof")
	}
}

func TestRidgeCrossing(t *testing.T) {
	// Scaling lanes moves the ridge right; past it the variant becomes
	// memory-bound and attainable stops tracking the compute roof.
	p := baseParams()
	p.KNL = 1
	low, _ := FromParams(p, perf.FormA)
	p.KNL = 64
	high, _ := FromParams(p, perf.FormA)
	if low.MemoryBound && !high.MemoryBound {
		t.Error("more lanes cannot make a variant less memory-bound")
	}
	if !high.MemoryBound {
		t.Error("64 lanes over a PCIe link must be memory-bound")
	}
	if high.Attainable >= high.ComputeRoof {
		t.Error("memory-bound attainable must sit below the compute roof")
	}
	if high.Ridge() <= low.Ridge() {
		t.Error("ridge intensity must grow with the compute roof")
	}
}

func TestRooflineAgreesWithEKITLimiter(t *testing.T) {
	// The roofline's memory-bound verdict must agree with the EKIT
	// breakdown's steady-state limiter across a lane sweep.
	p := baseParams()
	for _, lanes := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		p.KNL = lanes
		pt, err := FromParams(p, perf.FormB)
		if err != nil {
			t.Fatal(err)
		}
		_, bd, err := p.EKIT(perf.FormB)
		if err != nil {
			t.Fatal(err)
		}
		ekitMemBound := bd.Limiter == perf.LimitDRAMBandwidth
		if pt.MemoryBound != ekitMemBound {
			t.Errorf("%d lanes: roofline says memory-bound=%v, EKIT limiter %q",
				lanes, pt.MemoryBound, bd.Limiter)
		}
	}
}

func TestFromParamsValidates(t *testing.T) {
	p := baseParams()
	p.FD = 0
	if _, err := FromParams(p, perf.FormB); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestString(t *testing.T) {
	pt, err := FromParams(baseParams(), perf.FormB)
	if err != nil {
		t.Fatal(err)
	}
	if s := pt.String(); !strings.Contains(s, "items/B") || !strings.Contains(s, "bound") {
		t.Errorf("String() = %q", s)
	}
}
