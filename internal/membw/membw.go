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
// experiments: for each of DefaultDims, stream a Dim² array
// contiguously and with stride Dim, measuring the sustained rate
// including the kernel-dispatch overhead that dominates small sizes.
//
// Every (dim, pattern) cell starts from precharged banks, so the cells
// are independent. The contiguous cells all stream from address 0, so
// each is a prefix of the largest and one walk measures them all
// (memsim.DRAM.ContiguousSeconds). Each strided cell is a column walk of
// its own (memsim.DRAM.ColumnWalkSeconds), which walks only the passes
// that repeat no earlier pass, in the same rows or moved by whole rows.
// The walks run on up to GOMAXPROCS workers, each with its own DRAM
// channel, largest first (the contiguous walk, on the registered
// targets), and each sample lands in its fixed slot — the table is the
// same whatever the worker count.
func RunStreamBenchmark(t *device.Target) ([]Sample, error) {
	dims := DefaultDims
	// Job 0 walks the contiguous cells; job k >= 1 the strided cell of
	// dims[k-1]. Largest first, by expected walked accesses: the
	// contiguous walk moves max(dim)²·elemBytes/BurstBytes bursts. A
	// strided cell's passes repeat, moved by whole rows, about every
	// RowBytes/elemBytes passes, so few are walked beyond the first such
	// period: on the registered targets 33–91 passes of dim accesses for
	// each dim from 1000 up, about a tenth of RowBytes/elemBytes (512).
	period := int64(t.DRAM.RowBytes / elemBytes)
	accesses := make([]int64, len(dims)+1)
	for k, dim := range dims {
		n := int64(dim) * int64(dim)
		accesses[0] = max(accesses[0], n*elemBytes/int64(t.DRAM.BurstBytes))
		accesses[k+1] = min(int64(dim), period) * int64(dim) / 10
	}
	order := make([]int, len(accesses))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return accesses[order[a]] > accesses[order[b]]
	})
	drams := make([]*memsim.DRAM, min(runtime.GOMAXPROCS(0), len(order)))
	for w := range drams {
		dram, err := memsim.NewDRAM(t.DRAM)
		if err != nil {
			return nil, err
		}
		drams[w] = dram
	}
	queue := make(chan int, len(order))
	for _, i := range order {
		queue <- i
	}
	close(queue)
	// Table order: the contiguous then the strided sample of each dim.
	out := make([]Sample, 2*len(dims))
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for _, dram := range drams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range queue {
				dram.Reset()
				if job == 0 {
					errs[job] = contiguousCells(t, dram, dims, out)
					continue
				}
				k := job - 1
				// Column walk: dim passes, each streaming dim elements at
				// stride dim (wrapping to the next column between passes).
				secs, err := dram.ColumnWalkSeconds(int64(dims[k]), elemBytes)
				out[2*k+1], errs[job] = sample(t, dims[k], tir.PatternStrided, secs), err
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

// contiguousCells measures the contiguous cell of every dim in one
// prefix walk from dram's precharged banks, into out's even slots.
func contiguousCells(t *device.Target, dram *memsim.DRAM, dims []int, out []Sample) error {
	ns := make([]int64, len(dims))
	for k, dim := range dims {
		ns[k] = int64(dim) * int64(dim)
	}
	secs, err := dram.ContiguousSeconds(ns, elemBytes)
	if err != nil {
		return err
	}
	for k, dim := range dims {
		out[2*k] = sample(t, dim, tir.PatternContiguous, secs[k])
	}
	return nil
}

// sample is the benchmark cell of a dim×dim array streamed with the
// given pattern while the channel is busy for steady seconds.
func sample(t *device.Target, dim int, pat tir.AccessPattern, steady float64) Sample {
	bytes := int64(dim) * int64(dim) * elemBytes
	secs := steady + t.LaunchOverheadSec
	return Sample{
		Dim:             dim,
		Pattern:         pat,
		Bytes:           bytes,
		Seconds:         secs,
		Sustained:       float64(bytes) / secs,
		SteadySeconds:   steady,
		SteadySustained: float64(bytes) / steady,
	}
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
	samples, err := RunStreamBenchmark(t)
	if err != nil {
		return nil, err
	}
	link, err := memsim.NewLink(t.Link)
	if err != nil {
		return nil, err
	}
	m := &Model{Target: t, Table: samples, link: link}
	m.fillCurves()
	return m, nil
}

// fillCurves builds the four interpolation curves from m.Table, each
// in table order.
func (m *Model) fillCurves() {
	for _, s := range m.Table {
		c, steady := &m.contig, &m.steadyContig
		if s.Pattern == tir.PatternStrided {
			c, steady = &m.strided, &m.steadyStrided
		}
		c.bytes = append(c.bytes, float64(s.Bytes))
		c.bw = append(c.bw, s.Sustained)
		steady.bytes = append(steady.bytes, float64(s.Bytes))
		steady.bw = append(steady.bw, s.SteadySustained)
	}
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
