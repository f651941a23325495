// Package device describes FPGA targets, host CPUs and host-device links
// for the TyTra cost model.
//
// A Target corresponds to the paper's "target description" input (Fig 2):
// the one-time, per-device information the cost model needs — resource
// pools, peak bandwidths, clocking and power coefficients. Two concrete
// devices used by the paper are provided: the Altera Stratix-V GSD8 (the
// Maxeler Maia DFE in the §VII case study, and the device of the Fig 9
// synthesis experiments) and the Xilinx Virtex-7 690T (the Alpha-Data
// ADM-PCIE-7V3 board of the Fig 10 bandwidth experiments).
package device

import (
	"fmt"
	"math"
)

// Resources is a bundle of FPGA resource quantities. The same struct is
// used both for device capacities and for design utilisation, so the two
// can be compared directly. BRAM is counted in bits (as Table II of the
// paper reports), with the block size kept on the Target for block-level
// allocation.
type Resources struct {
	ALUTs int // adaptive look-up tables (Altera) / LUT6 equivalents (Xilinx)
	Regs  int // flip-flops
	BRAM  int // on-chip block-RAM bits
	DSPs  int // DSP elements (18x18 multiplier halves on Stratix-V)
}

// addSat sums non-negative resource counts, saturating at math.MaxInt
// instead of wrapping: a design too big to count must still compare as
// too big to fit.
func addSat(a, b int) int {
	if s := a + b; !(a >= 0 && b >= 0 && s < 0) {
		return s
	}
	return math.MaxInt
}

// mulSat multiplies non-negative resource counts with the same
// saturation. BRAM is counted in bits, so a large per-lane footprint
// times a high lane count is the first place plain int arithmetic
// would wrap (to a negative total that FitsIn would wave through).
func mulSat(a, n int) int {
	if a <= 0 || n <= 0 {
		return a * n
	}
	p := a * n
	if p/n != a {
		return math.MaxInt
	}
	return p
}

// Add returns the element-wise sum of r and s, saturating at
// math.MaxInt.
func (r Resources) Add(s Resources) Resources {
	return Resources{
		ALUTs: addSat(r.ALUTs, s.ALUTs),
		Regs:  addSat(r.Regs, s.Regs),
		BRAM:  addSat(r.BRAM, s.BRAM),
		DSPs:  addSat(r.DSPs, s.DSPs),
	}
}

// Scale returns r with every field multiplied by n. Products that
// overflow int saturate at math.MaxInt — BRAM bits times a high lane
// count is the realistic overflow (especially on 32-bit ints), and a
// wrapped negative total would make FitsIn accept a design the device
// cannot possibly host.
func (r Resources) Scale(n int) Resources {
	return Resources{
		ALUTs: mulSat(r.ALUTs, n),
		Regs:  mulSat(r.Regs, n),
		BRAM:  mulSat(r.BRAM, n),
		DSPs:  mulSat(r.DSPs, n),
	}
}

// FitsIn reports whether r fits within the capacity c.
func (r Resources) FitsIn(c Resources) bool {
	return r.ALUTs <= c.ALUTs && r.Regs <= c.Regs && r.BRAM <= c.BRAM && r.DSPs <= c.DSPs
}

// Utilisation returns the per-resource fraction of capacity c consumed by
// r, in the order ALUTs, Regs, BRAM, DSPs. A resource the capacity has
// none of is 0 when unused and +Inf when the design uses it — the design
// is infeasible on that device, and reporting 0 there would let
// MaxUtilisation call a design comfortable on a device that cannot host
// it at all (FitsIn and MaxUtilisation must agree: fraction > 1 on some
// resource exactly when the design does not fit).
func (r Resources) Utilisation(c Resources) (aluts, regs, bram, dsps float64) {
	frac := func(used, cap int) float64 {
		if cap == 0 {
			if used == 0 {
				return 0
			}
			return math.Inf(1)
		}
		return float64(used) / float64(cap)
	}
	return frac(r.ALUTs, c.ALUTs), frac(r.Regs, c.Regs), frac(r.BRAM, c.BRAM), frac(r.DSPs, c.DSPs)
}

// MaxUtilisation returns the largest single-resource utilisation fraction
// and the name of that resource. It identifies the paper's "computation
// wall": the first resource a replicated design runs out of.
func (r Resources) MaxUtilisation(c Resources) (float64, string) {
	a, g, b, d := r.Utilisation(c)
	best, name := a, "ALUTs"
	if g > best {
		best, name = g, "Regs"
	}
	if b > best {
		best, name = b, "BRAM"
	}
	if d > best {
		best, name = d, "DSPs"
	}
	return best, name
}

func (r Resources) String() string {
	return fmt.Sprintf("ALUTs=%d Regs=%d BRAM=%db DSPs=%d", r.ALUTs, r.Regs, r.BRAM, r.DSPs)
}

// DRAMSpec describes the device-global (on-board) DRAM, in enough detail
// for the memsim row-buffer model to reproduce the contiguity effects of
// Fig 10.
type DRAMSpec struct {
	PeakBandwidth float64 // bytes/second, data-sheet peak (the paper's GPB)
	ClockHz       float64 // DRAM interface clock
	BurstBytes    int     // minimum transfer quantum (one burst)
	RowBytes      int     // row-buffer (DRAM page) size per bank
	Banks         int     // independent banks
	RowHitCycles  int     // interface cycles per burst on a row-buffer hit
	RowMissCycles int     // extra cycles on a row-buffer miss (ACT+PRE)
	TransCycles   int     // controller round-trip for a non-streaming (strided/random) transaction
	SetupSeconds  float64 // fixed per-stream setup (DMA descriptor, cmd queue)
}

// LinkSpec describes the host-device link (PCIe for both boards).
type LinkSpec struct {
	PeakBandwidth float64 // bytes/second, data-sheet peak (the paper's HPB)
	LatencySec    float64 // per-transfer round-trip latency
	PacketBytes   int     // TLP payload size
	Overhead      float64 // protocol overhead fraction (headers, DLLPs, acks)
}

// PowerSpec carries the coefficients of the first-order power model used
// for the Fig 18 energy comparison: delta power over idle is a static
// component plus a dynamic component proportional to utilised logic.
type PowerSpec struct {
	StaticDeltaWatts  float64 // board powered and configured, clocks running
	DynamicWattsPerPE float64 // additional watts per active kernel pipeline
}

// Target is a complete FPGA platform description: one entry of the
// "one-time input for each unique FPGA target" of Fig 2.
type Target struct {
	Name      string
	Family    string // "stratix-v", "virtex-7", ...
	Capacity  Resources
	BRAMBlock int     // bits per physical BRAM block (M20K = 20480)
	DSPWidth  int     // native multiplier width of one DSP element
	FmaxHz    float64 // achievable pipeline clock for generated kernels (FD)
	DRAM      DRAMSpec
	Link      LinkSpec
	Power     PowerSpec
	// LaunchOverheadSec is the HLS-runtime cost of one kernel-instance
	// dispatch (OpenCL enqueue, DMA descriptors, completion interrupt).
	// It dominates sustained bandwidth at small stream sizes — the ramp
	// of Fig 10.
	LaunchOverheadSec float64
}

// Validate reports an error if the target description is not usable by
// the cost model. The float checks are worded so that NaN fails them.
func (t *Target) Validate() error {
	switch {
	case t.Name == "":
		return fmt.Errorf("device: target has no name")
	case t.Capacity.ALUTs <= 0 || t.Capacity.Regs <= 0:
		return fmt.Errorf("device %s: logic capacity must be positive", t.Name)
	case !(t.FmaxHz > 0):
		return fmt.Errorf("device %s: Fmax must be positive", t.Name)
	case !(t.DRAM.PeakBandwidth > 0):
		return fmt.Errorf("device %s: DRAM peak bandwidth must be positive", t.Name)
	case !(t.Link.PeakBandwidth > 0):
		return fmt.Errorf("device %s: link peak bandwidth must be positive", t.Name)
	case t.BRAMBlock <= 0:
		return fmt.Errorf("device %s: BRAM block size must be positive", t.Name)
	case t.DSPWidth <= 0:
		return fmt.Errorf("device %s: DSP width must be positive", t.Name)
	}
	return nil
}

// StratixVGSD8 returns the description of the Altera Stratix-V GSD8 as
// found on the Maxeler Maia DFE: 695K logic elements (~262K ALMs giving
// ~524K ALUTs), 1963 variable-precision DSP blocks (3926 18x18 elements),
// 2567 M20K blocks, on-board DDR3 at ~38.4 GB/s and a PCIe gen2 x8 host
// link (4 GB/s raw, ~3.2 GB/s after 8b/10b).
func StratixVGSD8() *Target {
	return &Target{
		Name:      "stratix-v-gsd8",
		Family:    "stratix-v",
		Capacity:  Resources{ALUTs: 524000, Regs: 1048000, BRAM: 2567 * 20480, DSPs: 3926},
		BRAMBlock: 20480,
		DSPWidth:  18,
		FmaxHz:    200e6,
		DRAM: DRAMSpec{
			PeakBandwidth: 38.4e9,
			ClockHz:       800e6,
			BurstBytes:    64,
			RowBytes:      2048,
			Banks:         8,
			RowHitCycles:  4,
			RowMissCycles: 22,
			TransCycles:   260,
			SetupSeconds:  2.0e-6,
		},
		Link: LinkSpec{
			PeakBandwidth: 3.2e9,
			LatencySec:    1.2e-6,
			PacketBytes:   256,
			Overhead:      0.18,
		},
		Power:             PowerSpec{StaticDeltaWatts: 9.5, DynamicWattsPerPE: 1.3},
		LaunchOverheadSec: 0.5e-3,
	}
}

// Virtex7690T returns the description of the Xilinx Virtex-7 XC7VX690T on
// the Alpha-Data ADM-PCIE-7V3 board used for the Fig 10 stream-bandwidth
// experiments. The link peak there is quoted in Gbps in the paper; the
// board exposes a single DDR3 channel to the OpenCL kernels by default
// (hence the modest ~6.3 Gbps plateau without vendor optimisations).
func Virtex7690T() *Target {
	return &Target{
		Name:      "virtex-7-690t",
		Family:    "virtex-7",
		Capacity:  Resources{ALUTs: 433200, Regs: 866400, BRAM: 1470 * 36864, DSPs: 3600},
		BRAMBlock: 36864,
		DSPWidth:  18,
		FmaxHz:    250e6,
		DRAM: DRAMSpec{
			// Baseline (unoptimised) single 512-bit-port DDR3 path as the
			// paper measured: ~6.3 Gbps sustained ceiling for one stream.
			PeakBandwidth: 0.85e9,
			ClockHz:       800e6,
			BurstBytes:    64,
			RowBytes:      2048,
			Banks:         8,
			RowHitCycles:  4,
			RowMissCycles: 24,
			TransCycles:   300,
			SetupSeconds:  18e-6,
		},
		Link: LinkSpec{
			PeakBandwidth: 6.0e9,
			LatencySec:    1.5e-6,
			PacketBytes:   256,
			Overhead:      0.2,
		},
		Power: PowerSpec{StaticDeltaWatts: 10.0, DynamicWattsPerPE: 1.4},
		// SDAccel's per-enqueue runtime overhead, the dominant term of
		// the Fig 10 size ramp.
		LaunchOverheadSec: 8e-3,
	}
}

// GSD8Edu returns a scaled-down GSD8 used by the Fig 15 design-space
// sweep. The paper's SOR variant is a single-precision floating-point
// kernel roughly 11x the ALUTs of this reproduction's integer kernel
// (measured: kernels.TestF32LaneJustifiesEduScaling), so
// on the full device the integer kernel would never hit a wall inside
// the 1..16-lane sweep; this target scales the logic pool and assumes a
// single-controller base platform (one DDR3 channel, modest kernel
// clock) so that all three walls of Fig 15 — host-bandwidth, DRAM-
// bandwidth and computation — fall inside the swept range, as they do in
// the paper. The substitution is recorded in DESIGN.md/EXPERIMENTS.md.
func GSD8Edu() *Target {
	t := StratixVGSD8()
	t.Name = "stratix-v-gsd8-edu"
	t.Capacity = Resources{ALUTs: 3000, Regs: 9000, BRAM: 180000, DSPs: 64}
	t.FmaxHz = 75e6
	t.DRAM.PeakBandwidth = 11.5e9
	return t
}

// HostCPU describes the host processor for the case-study comparison
// (§VII): a single-threaded scalar model is enough because the paper's
// CPU baseline is single-threaded Fortran compiled with gcc -O2.
type HostCPU struct {
	Name           string
	ClockHz        float64
	IPC            float64 // sustained instructions per cycle on stencil code
	DeltaWatts     float64 // increase over idle while running the kernel
	MemBWBytesPerS float64 // sustained memory bandwidth for streaming loops
}

// IntelI7Quad16 returns the paper's host: an Intel i7 quad-core at
// 1.6 GHz (only one core is used by the baseline).
func IntelI7Quad16() *HostCPU {
	return &HostCPU{
		Name:           "intel-i7-quad-1.6GHz",
		ClockHz:        1.6e9,
		IPC:            1.45,
		DeltaWatts:     52,
		MemBWBytesPerS: 9e9,
	}
}
