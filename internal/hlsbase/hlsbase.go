// Package hlsbase models the three platforms of the paper's §VII case
// study — the single-threaded CPU baseline, the Maxeler-HLS pipeline
// ("fpga-maxJ"), and the TyTra-generated multi-lane design integrated
// into the Maxeler framework ("fpga-tytra") — well enough to reproduce
// the relative runtime (Fig 17) and energy (Fig 18) comparisons.
//
// The paper's absolute numbers come from a physical Maia desktop node
// and a wall power meter; what survives substitution is the first-order
// cost structure of each platform:
//
//   - cpu: one scalar core sweeping the grid, compute- or memory-bound.
//   - fpga-maxJ: one kernel pipeline at the HLS tool's achieved clock,
//     plus a per-kernel-call dispatch overhead (DFE run setup).
//   - fpga-tytra: the same framework carrying the TyTra 4-lane design:
//     4x the steady-state rate, but more streams to set up per call —
//     the overhead that makes small grids unprofitable (the Fig 17
//     small-grid reversal).
//
// Energy is runtime times the measured-above-idle power of each
// platform: the CPU's package delta versus the FPGA board's static
// configuration power plus per-lane dynamic power (Fig 18).
package hlsbase

import (
	"fmt"

	"repro/internal/device"
)

// Defaults for the case-study platforms, standing in for the measured
// characteristics of the Maia desktop node.
const (
	// MaxJClockHz is the clock the Maxeler compiler closes timing at for
	// the auto-pipelined SOR kernel.
	MaxJClockHz = 105e6
	// TytraClockHz is the clock of the TyTra-generated lanes inside the
	// same framework (same fabric, same timing closure).
	TytraClockHz = 105e6
	// TytraLanes is the thread-parallelism of the case-study variant
	// (the 4-lane reshape of §VII).
	TytraLanes = 4
	// DispatchSec is the per-kernel-call overhead of the HLS framework
	// (DFE run setup, DMA descriptors, completion).
	DispatchSec = 0.3e-3
	// StreamSetupSec is the additional per-stream setup of one call;
	// the TyTra variant pays it for every lane's streams.
	StreamSetupSec = 10e-6
	// WordsPerPoint and WordBytes describe the SOR kernel's traffic:
	// p and rhs in, p_new out, at 4-byte words on the CPU and packed
	// 3-byte ui18 words on the FPGA.
	WordsPerPoint = 3
	cpuWordBytes  = 4
	fpgaWordBytes = 3
	// OpsPerPoint is the scalar instruction count of one stencil update
	// on the CPU (after -O2 strength reduction and CSE).
	OpsPerPoint = 15.5
	// CPUBytesPerPoint is the CPU's memory traffic per point.
	CPUBytesPerPoint = 16
)

// CaseStudy evaluates the three platforms on a common workload.
type CaseStudy struct {
	cpu    *device.HostCPU
	target *device.Target
}

// NewCaseStudy returns the §VII configuration: the Maia desktop node.
func NewCaseStudy() *CaseStudy {
	return &CaseStudy{cpu: device.IntelI7Quad16(), target: device.StratixVGSD8()}
}

// Platform identifies one of the three case-study implementations.
type Platform int

const (
	PlatformCPU Platform = iota
	PlatformMaxJ
	PlatformTytra
)

// String names the platform with the paper's labels.
func (p Platform) String() string {
	switch p {
	case PlatformCPU:
		return "cpu"
	case PlatformMaxJ:
		return "fpga-maxJ"
	case PlatformTytra:
		return "fpga-tytra"
	}
	return fmt.Sprintf("platform-?(%d)", int(p))
}

// Platforms lists the three case-study implementations in plot order.
var Platforms = []Platform{PlatformCPU, PlatformMaxJ, PlatformTytra}

// CPUSeconds models the single-threaded baseline: per grid sweep, the
// slower of the compute time and the streaming-memory time.
func (cs *CaseStudy) CPUSeconds(points, iters int64) float64 {
	compute := float64(points) * OpsPerPoint / (cs.cpu.ClockHz * cs.cpu.IPC)
	memory := float64(points) * CPUBytesPerPoint / cs.cpu.MemBWBytesPerS
	per := compute
	if memory > per {
		per = memory
	}
	return per * float64(iters)
}

// fpgaSeconds models a pipelined FPGA implementation: lanes accepting
// one point per cycle, bounded by sustained DRAM bandwidth (a flat 70%
// of peak: the FPGA platforms are compute-bound on every grid), plus
// the per-call dispatch and per-stream setup overheads. Host transfer
// happens once (form B): the grids fit device DRAM.
func (cs *CaseStudy) fpgaSeconds(points, iters int64, lanes int, clockHz float64, streams int) float64 {
	bytesPerIter := float64(points) * WordsPerPoint * fpgaWordBytes
	sustained := 0.7 * cs.target.DRAM.PeakBandwidth
	compute := float64(points) / (clockHz * float64(lanes))
	stream := bytesPerIter / sustained
	per := compute
	if stream > per {
		per = stream
	}
	per += DispatchSec + float64(streams)*StreamSetupSec

	// One-time host transfer over PCIe (in and out), amortised over the
	// solver iterations.
	link := cs.target.Link
	host := 2 * bytesPerIter / (link.PeakBandwidth * (1 - link.Overhead))
	return per*float64(iters) + host
}

// Seconds returns the modelled runtime of one platform for a cubic grid
// of dim³ points over the given solver iterations (the paper fixes
// nmaxp = 1000).
func (cs *CaseStudy) Seconds(p Platform, dim int, iters int64) float64 {
	points := int64(dim) * int64(dim) * int64(dim)
	switch p {
	case PlatformCPU:
		return cs.CPUSeconds(points, iters)
	case PlatformMaxJ:
		// One lane, three streams (p, rhs, p_new).
		return cs.fpgaSeconds(points, iters, 1, MaxJClockHz, WordsPerPoint)
	case PlatformTytra:
		// Four lanes, each with its own three streams: the stream
		// handling overhead that dominates small grids (§VII).
		return cs.fpgaSeconds(points, iters, TytraLanes, TytraClockHz, WordsPerPoint*TytraLanes)
	}
	return 0
}

// DeltaWatts returns the above-idle power draw of one platform.
func (cs *CaseStudy) DeltaWatts(p Platform) float64 {
	switch p {
	case PlatformCPU:
		return cs.cpu.DeltaWatts
	case PlatformMaxJ:
		return cs.target.Power.StaticDeltaWatts + 1*cs.target.Power.DynamicWattsPerPE
	case PlatformTytra:
		return cs.target.Power.StaticDeltaWatts + TytraLanes*cs.target.Power.DynamicWattsPerPE
	}
	return 0
}

// Joules returns the modelled above-idle energy of one run.
func (cs *CaseStudy) Joules(p Platform, dim int, iters int64) float64 {
	return cs.Seconds(p, dim, iters) * cs.DeltaWatts(p)
}

// Row is one grid size of Fig 17 / Fig 18: the three platforms'
// values normalised to the CPU baseline.
type Row struct {
	Dim        int
	Seconds    [3]float64 // indexed by Platform
	Normalised [3]float64 // runtime / cpu runtime (Fig 17's y axis)
	Joules     [3]float64
	EnergyNorm [3]float64 // energy / cpu energy (Fig 18's y axis)
}

// Grids is the Fig 17/18 sweep of grid dimensions.
var Grids = []int{24, 48, 96, 144, 192}

// Evaluate produces the full case-study table for the given solver
// iteration count.
func (cs *CaseStudy) Evaluate(iters int64) []Row {
	rows := make([]Row, 0, len(Grids))
	for _, dim := range Grids {
		var r Row
		r.Dim = dim
		for _, p := range Platforms {
			r.Seconds[p] = cs.Seconds(p, dim, iters)
			r.Joules[p] = cs.Joules(p, dim, iters)
		}
		for _, p := range Platforms {
			r.Normalised[p] = r.Seconds[p] / r.Seconds[PlatformCPU]
			r.EnergyNorm[p] = r.Joules[p] / r.Joules[PlatformCPU]
		}
		rows = append(rows, r)
	}
	return rows
}
