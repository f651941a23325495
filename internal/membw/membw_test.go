package membw

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/memsim"
	"repro/internal/tir"
)

var (
	cachedModel    *Model
	cachedModelErr error
	cacheOnce      sync.Once
)

// buildModel memoises the one-time benchmark across tests; it is genuinely
// one-time per target in production use too.
func buildModel(t *testing.T) *Model {
	t.Helper()
	cacheOnce.Do(func() { cachedModel, cachedModelErr = Build(device.Virtex7690T()) })
	if cachedModelErr != nil {
		t.Fatal(cachedModelErr)
	}
	return cachedModel
}

// sampleAt finds the benchmark sample for a dimension and pattern.
func sampleAt(t *testing.T, m *Model, dim int, pat tir.AccessPattern) Sample {
	t.Helper()
	for _, s := range m.Table {
		if s.Dim == dim && s.Pattern == pat {
			return s
		}
	}
	t.Fatalf("no sample for dim %d pattern %v", dim, pat)
	return Sample{}
}

func TestFig10ContiguousRamp(t *testing.T) {
	// The Fig 10 contiguous curve: monotone ramp with size, from well
	// under 1 Gbps at small sizes to a plateau above 5 Gbps.
	m := buildModel(t)
	prev := 0.0
	for _, dim := range DefaultDims {
		g := sampleAt(t, m, dim, tir.PatternContiguous).Gbps()
		if g <= prev {
			t.Errorf("dim %d: contiguous %.3f Gbps not increasing (prev %.3f)", dim, g, prev)
		}
		prev = g
	}
	small := sampleAt(t, m, 250, tir.PatternContiguous).Gbps()
	big := sampleAt(t, m, 6000, tir.PatternContiguous).Gbps()
	if small > 1.0 {
		t.Errorf("small contiguous stream %.3f Gbps; paper reports ~0.3", small)
	}
	if big < 5.0 || big > 7.0 {
		t.Errorf("plateau %.3f Gbps; paper reports ~6.3", big)
	}
}

func TestFig10Plateau(t *testing.T) {
	// Beyond ~1000x1000 the curve must flatten: the relative gain from
	// 4000 to 6000 is small compared to the gain from 250 to 1000.
	m := buildModel(t)
	g250 := sampleAt(t, m, 250, tir.PatternContiguous).Gbps()
	g1000 := sampleAt(t, m, 1000, tir.PatternContiguous).Gbps()
	g4000 := sampleAt(t, m, 4000, tir.PatternContiguous).Gbps()
	g6000 := sampleAt(t, m, 6000, tir.PatternContiguous).Gbps()
	rampGain := g1000 / g250
	tailGain := g6000 / g4000
	if rampGain < 3 {
		t.Errorf("ramp gain %.2f too small; curve should climb steeply below 1000²", rampGain)
	}
	if tailGain > 1.2 {
		t.Errorf("tail gain %.2f too large; curve should plateau past 1000²", tailGain)
	}
}

func TestFig10ContiguityGap(t *testing.T) {
	// "Up to two-orders-of-magnitude impact" of contiguity: at the
	// plateau, contiguous must be ~100x strided; strided stays in the
	// 0.02-0.1 Gbps band everywhere.
	m := buildModel(t)
	for _, dim := range DefaultDims {
		s := sampleAt(t, m, dim, tir.PatternStrided).Gbps()
		if s < 0.01 || s > 0.12 {
			t.Errorf("dim %d: strided %.3f Gbps outside the paper's 0.04-0.07 band", dim, s)
		}
	}
	c := sampleAt(t, m, 6000, tir.PatternContiguous).Gbps()
	s := sampleAt(t, m, 6000, tir.PatternStrided).Gbps()
	if ratio := c / s; ratio < 50 || ratio > 200 {
		t.Errorf("contiguity gap %.1fx at the plateau; paper reports ~two orders of magnitude", ratio)
	}
}

func TestSustainedInterpolates(t *testing.T) {
	m := buildModel(t)
	// Between two sampled sizes the prediction lies between their rates.
	lo := sampleAt(t, m, 1000, tir.PatternContiguous)
	hi := sampleAt(t, m, 2000, tir.PatternContiguous)
	mid := m.SustainedDRAM((lo.Bytes+hi.Bytes)/2, tir.PatternContiguous)
	if mid < lo.Sustained || mid > hi.Sustained {
		t.Errorf("interpolated %.3g outside [%.3g, %.3g]", mid, lo.Sustained, hi.Sustained)
	}
	// At a sampled size the prediction reproduces the measurement.
	if got := m.SustainedDRAM(lo.Bytes, tir.PatternContiguous); got != lo.Sustained {
		t.Errorf("at sample: %v, want %v", got, lo.Sustained)
	}
}

func TestSustainedEdges(t *testing.T) {
	m := buildModel(t)
	if got := m.SustainedDRAM(0, tir.PatternContiguous); got != 0 {
		t.Errorf("zero bytes: %v", got)
	}
	// Tiny streams must be penalised below the smallest sample, not
	// clamped to it.
	smallest := m.Table[0]
	tiny := m.SustainedDRAM(smallest.Bytes/100, smallest.Pattern)
	if tiny >= smallest.Sustained {
		t.Errorf("tiny stream %v not below smallest sample %v", tiny, smallest.Sustained)
	}
	// Huge streams clamp to the plateau.
	huge := m.SustainedDRAM(1<<40, tir.PatternContiguous)
	plateau := sampleAt(t, m, 6000, tir.PatternContiguous).Sustained
	if huge != plateau {
		t.Errorf("huge stream %v, want plateau %v", huge, plateau)
	}
}

func TestRhoFactorsInUnitRange(t *testing.T) {
	m := buildModel(t)
	for _, bytes := range []int64{1 << 10, 1 << 16, 1 << 22, 1 << 28} {
		for _, pat := range []tir.AccessPattern{tir.PatternContiguous, tir.PatternStrided} {
			if rho := m.RhoG(bytes, pat); rho <= 0 || rho > 1 {
				t.Errorf("RhoG(%d, %v) = %v outside (0,1]", bytes, pat, rho)
			}
		}
		if rho := m.RhoH(bytes); rho <= 0 || rho > 1 {
			t.Errorf("RhoH(%d) = %v outside (0,1]", bytes, rho)
		}
	}
}

// StrideSample is one point of the stride sweep: a fixed-size stream
// accessed at the given element stride.
type StrideSample struct {
	Stride    int64
	Bytes     int64
	Seconds   float64
	Sustained float64 // bytes/second
}

// RunStrideSweep performs the second axis of the §V-C experiments:
// holding the stream size fixed and varying the stride. The paper
// observes the bandwidth collapses as soon as accesses stop coalescing
// and stays flat from there ("little difference between fixed-stride
// and true random access"); the sweep exposes where the collapse
// happens for a target (once the stride exceeds one burst).
func RunStrideSweep(t *device.Target, elems int64, strides []int64) ([]StrideSample, error) {
	if elems <= 0 {
		return nil, fmt.Errorf("membw: stride sweep needs a positive element count")
	}
	if len(strides) == 0 {
		strides = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	}
	dram, err := memsim.NewDRAM(t.DRAM)
	if err != nil {
		return nil, err
	}
	bytes := elems * elemBytes
	out := make([]StrideSample, 0, len(strides))
	for _, st := range strides {
		if st <= 0 {
			return nil, fmt.Errorf("membw: non-positive stride %d", st)
		}
		dram.Reset()
		secs, err := dram.StreamSeconds(0, elems, elemBytes, st)
		if err != nil {
			return nil, err
		}
		secs += t.LaunchOverheadSec
		out = append(out, StrideSample{
			Stride: st, Bytes: bytes, Seconds: secs,
			Sustained: float64(bytes) / secs,
		})
	}
	return out, nil
}

func TestStrideSweepCollapseAndFlatten(t *testing.T) {
	// §V-C's second axis: bandwidth collapses once accesses stop
	// coalescing (stride beyond one burst) and stays near-flat from
	// there — the reason a single "strided" curve suffices in Fig 10.
	samples, err := RunStrideSweep(device.Virtex7690T(), 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	bw := map[int64]float64{}
	for _, s := range samples {
		bw[s.Stride] = s.Sustained
	}
	if bw[1] < 10*bw[64] {
		t.Errorf("unit stride (%.3g) not an order of magnitude above stride 64 (%.3g)", bw[1], bw[64])
	}
	// Flat tail: 64 vs 1024 within 2x.
	if ratio := bw[64] / bw[1024]; ratio > 2 || ratio < 0.5 {
		t.Errorf("strided tail not flat: stride 64 vs 1024 ratio %.2f", ratio)
	}
	// Monotone non-increasing overall.
	for i := 1; i < len(samples); i++ {
		if samples[i].Sustained > samples[i-1].Sustained*1.01 {
			t.Errorf("bandwidth rose from stride %d to %d", samples[i-1].Stride, samples[i].Stride)
		}
	}
}

func TestStrideSweepErrors(t *testing.T) {
	if _, err := RunStrideSweep(device.Virtex7690T(), 0, nil); err == nil {
		t.Error("zero elements accepted")
	}
	if _, err := RunStrideSweep(device.Virtex7690T(), 100, []int64{0}); err == nil {
		t.Error("zero stride accepted")
	}
}

func TestBuildStratixToo(t *testing.T) {
	// The case-study device must also calibrate cleanly and show the
	// same qualitative shape.
	m, err := Build(device.StratixVGSD8())
	if err != nil {
		t.Fatal(err)
	}
	c := m.SustainedDRAM(64<<20, tir.PatternContiguous)
	s := m.SustainedDRAM(64<<20, tir.PatternStrided)
	if c <= s {
		t.Errorf("contiguous %v not above strided %v", c, s)
	}
}

// BenchmarkBuild times the one-time bandwidth benchmark of each
// registered target, which is most of a cold run's set-up.
func BenchmarkBuild(b *testing.B) {
	for _, name := range device.Names() {
		b.Run(name, func(b *testing.B) {
			tgt, err := device.Lookup(name)
			if err != nil {
				b.Fatal(err)
			}
			for b.Loop() {
				if _, err := Build(tgt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildRejectsBadChannelSpecs: a target whose DRAM or link timing
// holds a NaN, an infinity or a negative value must be rejected by the
// memsim constructor and by Build, not calibrated into a NaN or
// negative ρ. One case per checked field.
func TestBuildRejectsBadChannelSpecs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*device.Target)
	}{
		{"DRAM clock NaN", func(t *device.Target) { t.DRAM.ClockHz = math.NaN() }},
		{"DRAM peak bandwidth +Inf", func(t *device.Target) { t.DRAM.PeakBandwidth = math.Inf(1) }},
		{"DRAM setup negative", func(t *device.Target) { t.DRAM.SetupSeconds = -1e-6 }},
		{"DRAM row-miss cycles negative", func(t *device.Target) { t.DRAM.RowMissCycles = -10000 }},
		{"DRAM transaction cycles negative", func(t *device.Target) { t.DRAM.TransCycles = -1 }},
		{"link peak bandwidth +Inf", func(t *device.Target) { t.Link.PeakBandwidth = math.Inf(1) }},
		{"link latency NaN", func(t *device.Target) { t.Link.LatencySec = math.NaN() }},
		{"link overhead NaN", func(t *device.Target) { t.Link.Overhead = math.NaN() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tgt := device.Virtex7690T()
			c.mut(tgt)
			_, dramErr := memsim.NewDRAM(tgt.DRAM)
			_, linkErr := memsim.NewLink(tgt.Link)
			if dramErr == nil && linkErr == nil {
				t.Error("memsim accepted the channel specs")
			}
			if m, err := Build(tgt); err == nil {
				t.Errorf("Build accepted the target: ρG = %v, ρH = %v",
					m.RhoG(1<<20, tir.PatternContiguous), m.RhoH(1<<20))
			}
		})
	}
}
