// Package membw implements the paper's empirical sustained-bandwidth
// model (§V-C): a STREAM-style benchmark is run once per target against
// the memory substrate, sweeping stream size and access pattern, and the
// resulting table is interpolated to predict the sustained bandwidth —
// and the ρ scale factors of Table I — for any stream a design variant
// declares.
//
// This mirrors the paper's extension of the McCalpin STREAM benchmark to
// OpenCL-on-FPGA (after GPU-STREAM), run on the ADM-PCIE-7V3 board; here
// the "board" is the memsim DRAM/link model (see Fig 10 and the
// substitution table in DESIGN.md).
package membw

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/device"
	"repro/internal/memsim"
	"repro/internal/tir"
)

// elemBytes is the stream element size of the benchmark (32-bit words,
// as in the paper's OpenCL STREAM port).
const elemBytes = 4

// Sample is one measured point of the bandwidth benchmark: a square
// Dim×Dim array streamed with the given pattern (stride == Dim for the
// strided pattern, the column-walk of Fig 10).
type Sample struct {
	Dim     int
	Pattern tir.AccessPattern
	Bytes   int64
	Seconds float64
	// Sustained is the measured bandwidth in bytes/second, including the
	// kernel-dispatch overhead — what the benchmark observes end to end
	// (the Fig 10 y-axis).
	Sustained float64
	// SteadySeconds excludes the per-dispatch overhead: the channel
	// occupancy while the kernel is actually streaming. The steady rate
	// is what a running design's streams sustain (the ρG of Table I);
	// the dispatch cost is charged once per kernel-instance, not once
	// per stream.
	SteadySeconds float64
	// SteadySustained is Bytes/SteadySeconds.
	SteadySustained float64
}

// Gbps returns the sample in the units of Fig 10.
func (s Sample) Gbps() float64 { return s.Sustained * 8 / 1e9 }

// DefaultDims are the array dimensions swept by the benchmark, matching
// the Fig 10 horizontal axis.
var DefaultDims = []int{100, 250, 500, 1000, 2000, 3000, 4000, 5000, 6000}

// RunStreamBenchmark performs the one-time per-target bandwidth
// experiments: for each dimension, stream a Dim² array contiguously and
// with stride Dim, measuring the sustained rate including the
// kernel-dispatch overhead that dominates small sizes.
//
// Every (dim, pattern) cell starts from precharged banks, so the cells
// are independent: they run on up to GOMAXPROCS workers, each with its
// own DRAM channel, largest first, and each result lands in its fixed
// slot — the table is the same whatever the worker count.
func RunStreamBenchmark(t *device.Target, dims []int) ([]Sample, error) {
	if len(dims) == 0 {
		dims = DefaultDims
	}
	for _, dim := range dims {
		if dim <= 0 {
			return nil, fmt.Errorf("membw: non-positive benchmark dimension %d", dim)
		}
	}
	type cell struct {
		dim int
		pat tir.AccessPattern
	}
	cells := make([]cell, 0, 2*len(dims))
	for _, dim := range dims {
		cells = append(cells, cell{dim, tir.PatternContiguous}, cell{dim, tir.PatternStrided})
	}
	drams := make([]*memsim.DRAM, min(runtime.GOMAXPROCS(0), len(cells)))
	for w := range drams {
		dram, err := memsim.NewDRAM(t.DRAM)
		if err != nil {
			return nil, err
		}
		drams[w] = dram
	}
	// Largest first, by simulated accesses: a strided cell walks dim²
	// elements, a contiguous one moves dim²·elemBytes/BurstBytes bursts.
	accesses := func(c cell) int64 {
		n := int64(c.dim) * int64(c.dim)
		if c.pat == tir.PatternStrided {
			return n
		}
		return n * elemBytes / int64(t.DRAM.BurstBytes)
	}
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return accesses(cells[order[a]]) > accesses(cells[order[b]])
	})
	queue := make(chan int, len(order))
	for _, i := range order {
		queue <- i
	}
	close(queue)
	out := make([]Sample, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for _, dram := range drams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i], errs[i] = streamCell(t, dram, cells[i].dim, cells[i].pat)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// streamCell measures one benchmark cell: a dim×dim array streamed with
// the given pattern from precharged banks.
func streamCell(t *device.Target, dram *memsim.DRAM, dim int, pat tir.AccessPattern) (Sample, error) {
	n := int64(dim) * int64(dim)
	bytes := n * elemBytes
	dram.Reset()
	var secs float64
	if pat == tir.PatternStrided {
		// Column walk: dim passes, each streaming dim elements at
		// stride dim (wrapping to the next column between passes).
		for col := 0; col < dim; col++ {
			s, err := dram.StreamSeconds(int64(col)*elemBytes, int64(dim), elemBytes, int64(dim))
			if err != nil {
				return Sample{}, err
			}
			secs += s
		}
	} else {
		s, err := dram.StreamSeconds(0, n, elemBytes, 1)
		if err != nil {
			return Sample{}, err
		}
		secs = s
	}
	steady := secs
	secs += t.LaunchOverheadSec
	return Sample{
		Dim:             dim,
		Pattern:         pat,
		Bytes:           bytes,
		Seconds:         secs,
		Sustained:       float64(bytes) / secs,
		SteadySeconds:   steady,
		SteadySustained: float64(bytes) / steady,
	}, nil
}

// StrideSample is one point of the stride sweep: a fixed-size stream
// accessed at the given element stride.
type StrideSample struct {
	Stride    int64
	Bytes     int64
	Seconds   float64
	Sustained float64 // bytes/second
}

// Gbps returns the sample in Fig 10's units.
func (s StrideSample) Gbps() float64 { return s.Sustained * 8 / 1e9 }

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

// Model is the interpolating sustained-bandwidth model built from the
// benchmark table, the "empirical data" evaluation method of Table I.
type Model struct {
	Target *device.Target
	// Table holds the raw benchmark samples.
	Table []Sample

	contig        curve
	strided       curve
	steadyContig  curve
	steadyStrided curve
	link          *memsim.Link
}

// curve interpolates sustained bandwidth against stream bytes.
type curve struct {
	bytes []float64
	bw    []float64
}

func (c curve) eval(bytes float64) float64 {
	n := len(c.bytes)
	if n == 0 {
		return 0
	}
	if bytes <= c.bytes[0] {
		// Below the smallest sample the dispatch overhead dominates:
		// scale down proportionally to size rather than clamping, so
		// tiny streams are not credited with the small-sample rate.
		return c.bw[0] * bytes / c.bytes[0]
	}
	if bytes >= c.bytes[n-1] {
		return c.bw[n-1]
	}
	i := sort.SearchFloat64s(c.bytes, bytes)
	lo, hi := i-1, i
	t := (bytes - c.bytes[lo]) / (c.bytes[hi] - c.bytes[lo])
	return c.bw[lo] + t*(c.bw[hi]-c.bw[lo])
}

// Build runs the one-time benchmark and assembles the model for the
// target (Fig 2's "one-time input for each unique FPGA target").
func Build(t *device.Target) (*Model, error) {
	samples, err := RunStreamBenchmark(t, nil)
	if err != nil {
		return nil, err
	}
	link, err := memsim.NewLink(t.Link)
	if err != nil {
		return nil, err
	}
	m := &Model{Target: t, Table: samples, link: link}
	for _, s := range samples {
		if s.Pattern == tir.PatternStrided {
			m.strided.bytes = append(m.strided.bytes, float64(s.Bytes))
			m.strided.bw = append(m.strided.bw, s.Sustained)
			m.steadyStrided.bytes = append(m.steadyStrided.bytes, float64(s.Bytes))
			m.steadyStrided.bw = append(m.steadyStrided.bw, s.SteadySustained)
		} else {
			m.contig.bytes = append(m.contig.bytes, float64(s.Bytes))
			m.contig.bw = append(m.contig.bw, s.Sustained)
			m.steadyContig.bytes = append(m.steadyContig.bytes, float64(s.Bytes))
			m.steadyContig.bw = append(m.steadyContig.bw, s.SteadySustained)
		}
	}
	return m, nil
}

// SustainedDRAM predicts the sustained device-DRAM bandwidth
// (bytes/second) for a stream of the given size and pattern.
func (m *Model) SustainedDRAM(bytes int64, pattern tir.AccessPattern) float64 {
	if bytes <= 0 {
		return 0
	}
	if pattern == tir.PatternStrided {
		return m.strided.eval(float64(bytes))
	}
	return m.contig.eval(float64(bytes))
}

// SustainedSteady predicts the steady-state sustained bandwidth of a
// stream while its kernel is running — the dispatch overhead excluded,
// since that is paid once per kernel-instance rather than per stream.
func (m *Model) SustainedSteady(bytes int64, pattern tir.AccessPattern) float64 {
	if bytes <= 0 {
		return 0
	}
	if pattern == tir.PatternStrided {
		return m.steadyStrided.eval(float64(bytes))
	}
	return m.steadyContig.eval(float64(bytes))
}

// RhoG returns the paper's ρG: the ratio of steady-state sustained to
// peak DRAM bandwidth for the given stream.
func (m *Model) RhoG(bytes int64, pattern tir.AccessPattern) float64 {
	return m.SustainedSteady(bytes, pattern) / m.Target.DRAM.PeakBandwidth
}

// SustainedHost predicts the sustained host-device link bandwidth for a
// transfer of the given size.
func (m *Model) SustainedHost(bytes int64) float64 {
	return m.link.SustainedBandwidth(bytes)
}

// RhoH returns the paper's ρH: the ratio of sustained to peak host-link
// bandwidth for the given transfer.
func (m *Model) RhoH(bytes int64) float64 {
	return m.SustainedHost(bytes) / m.Target.Link.PeakBandwidth
}
