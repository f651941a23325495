// Package memsim is the memory substrate of the reproduction: a banked
// DRAM model with per-bank row buffers and burst-quantised transfers,
// plus a PCIe link model. It stands in for the physical boards of the
// paper's bandwidth experiments (§V-C): the Alpha-Data ADM-PCIE-7V3's
// DDR3 channel for the Fig 10 measurements, and the Maxeler Maia's
// DRAM/PCIe for the case study.
//
// The two empirical phenomena of Fig 10 — the up-to-two-orders-of-
// magnitude contiguity penalty and the size-dependent ramp that plateaus
// around 1000×1000 elements — emerge from the model's mechanisms rather
// than being fitted: non-contiguous accesses pay a controller round-trip
// and defeat burst amortisation, and the fixed kernel-dispatch overhead
// is amortised only as stream size grows.
package memsim

import (
	"fmt"
	"math"

	"repro/internal/device"
)

// DRAM simulates one device-DRAM channel.
type DRAM struct {
	spec device.DRAMSpec
	// openRow[b] is the row id currently latched in bank b's row buffer,
	// or -1 when the bank is precharged.
	openRow []int64
}

// NewDRAM returns a DRAM channel with all banks precharged.
func NewDRAM(spec device.DRAMSpec) (*DRAM, error) {
	if spec.Banks <= 0 || spec.RowBytes <= 0 || spec.BurstBytes <= 0 {
		return nil, fmt.Errorf("memsim: DRAM spec needs positive banks/row/burst, got %+v", spec)
	}
	if spec.ClockHz <= 0 || spec.PeakBandwidth <= 0 {
		return nil, fmt.Errorf("memsim: DRAM spec needs positive clock and bandwidth")
	}
	d := &DRAM{spec: spec, openRow: make([]int64, spec.Banks)}
	d.Reset()
	return d, nil
}

// Reset precharges all banks.
func (d *DRAM) Reset() {
	for i := range d.openRow {
		d.openRow[i] = -1
	}
}

// burstCycles is the interface-cycle cost of moving one full burst at
// peak bandwidth.
func (d *DRAM) burstCycles() float64 {
	return float64(d.spec.BurstBytes) * d.spec.ClockHz / d.spec.PeakBandwidth
}

// touch accounts a row activation if the address falls outside the open
// row of its bank, returning the penalty cycles.
func (d *DRAM) touch(addr int64) float64 {
	row := addr / int64(d.spec.RowBytes)
	bank := int(row % int64(d.spec.Banks))
	if d.openRow[bank] == row {
		return 0
	}
	d.openRow[bank] = row
	return float64(d.spec.RowMissCycles)
}

// StreamSeconds simulates streaming n elements of elemBytes each,
// starting at byte address base, with a fixed stride (in elements), and
// returns the channel-occupancy time in seconds. Contiguous streams
// (stride 1) move whole bursts; non-unit strides are issued as
// individual controller transactions, each paying the round-trip
// TransCycles and wasting the rest of its burst — the mechanism behind
// the two-orders-of-magnitude gap of Fig 10. A negative base, or a
// stream whose addresses run past the int64 range, is an error.
func (d *DRAM) StreamSeconds(base, n int64, elemBytes int, strideElems int64) (float64, error) {
	if n <= 0 {
		return 0, nil
	}
	if elemBytes <= 0 {
		return 0, fmt.Errorf("memsim: element size must be positive, got %d", elemBytes)
	}
	if base < 0 {
		return 0, fmt.Errorf("memsim: negative stream base address %d", base)
	}
	if strideElems == 0 {
		strideElems = 1
	}
	if strideElems < 0 {
		strideElems = -strideElems // mirror-order streaming costs the same
	}
	bc := d.burstCycles()
	var count, stride, scale int64
	var hit float64
	if strideElems == 1 {
		// Whole-burst streaming: the controller coalesces; row misses
		// occur at row crossings only.
		if n > math.MaxInt64/int64(elemBytes) {
			return 0, errOverrun(base, n, elemBytes, strideElems)
		}
		bytes, burst := n*int64(elemBytes), int64(d.spec.BurstBytes)
		count, stride, scale, hit = bytes/burst, 1, burst, bc
		if bytes%burst != 0 {
			count++
		}
	} else {
		count, stride, scale, hit = n, strideElems, int64(elemBytes), bc+float64(d.spec.TransCycles)
	}
	step, ok := walkStep(base, count, stride, scale)
	if !ok {
		return 0, errOverrun(base, n, elemBytes, strideElems)
	}
	return d.walk(base, count, step, hit)/d.spec.ClockHz + d.spec.SetupSeconds, nil
}

// walkStep returns the byte step stride·scale of a count-access walk
// from base, and whether its last address, base + (count-1)·step, stays
// within int64. base, count and scale are non-negative; a negative
// stride (math.MinInt64 mirrored) never fits. A single access needs no
// step.
func walkStep(base, count, stride, scale int64) (int64, bool) {
	if count <= 1 {
		return 0, true
	}
	if stride < 0 || stride > (math.MaxInt64-base)/(count-1)/scale {
		return 0, false
	}
	return stride * scale, true
}

func errOverrun(base, n int64, elemBytes int, strideElems int64) error {
	return fmt.Errorf("memsim: stream of %d %d-byte elements at stride %d from address %d overruns the int64 address space",
		n, elemBytes, strideElems, base)
}

// walk accounts count >= 1 accesses at base, base+step, base+2·step, ...
// (base >= 0, step >= 0, last address within int64) and returns their
// cycles: hit per row-buffer hit, hit+RowMissCycles per miss, summed in
// access order. It is touch applied to each address, bit for bit: the
// row, the offset within it and the bank advance by the step's quotient
// and remainder instead of being divided out of every address.
func (d *DRAM) walk(base, count, step int64, hit float64) float64 {
	rowBytes, banks := int64(d.spec.RowBytes), int64(d.spec.Banks)
	miss := hit + float64(d.spec.RowMissCycles)
	row, off := base/rowBytes, base%rowBytes
	bank := row % banks
	dRow, dOff := step/rowBytes, step%rowBytes
	dBank := dRow % banks
	open := d.openRow
	cycles := 0.0
	for i := int64(1); ; i++ {
		if open[bank] == row {
			cycles += hit
		} else {
			open[bank] = row
			cycles += miss
		}
		if i == count {
			return cycles
		}
		row += dRow
		bank += dBank
		off += dOff
		if off >= rowBytes {
			off -= rowBytes
			row++
			bank++
		}
		if bank >= banks {
			bank -= banks
		}
	}
}

// RandomSeconds simulates n single-element accesses at pseudo-random
// addresses within a window of windowBytes. The paper observes "little
// difference in sustained bandwidth between fixed-stride and true
// random access" (§V-C); the model reproduces that because both defeat
// burst coalescing and pay the controller round trip — the row-buffer
// hit rate differs only marginally once the stride exceeds the row size.
func (d *DRAM) RandomSeconds(seed uint64, n int64, elemBytes int, windowBytes int64) (float64, error) {
	if n <= 0 {
		return 0, nil
	}
	if elemBytes <= 0 {
		return 0, fmt.Errorf("memsim: element size must be positive, got %d", elemBytes)
	}
	if windowBytes <= int64(elemBytes) {
		return 0, fmt.Errorf("memsim: random window must exceed one element")
	}
	cycles := 0.0
	bc := d.burstCycles()
	state := seed*6364136223846793005 + 1442695040888963407
	slots := windowBytes / int64(elemBytes)
	for i := int64(0); i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		addr := int64((state>>17)%uint64(slots)) * int64(elemBytes)
		cycles += bc + float64(d.spec.TransCycles) + d.touch(addr)
	}
	return cycles/d.spec.ClockHz + d.spec.SetupSeconds, nil
}

// Link simulates the host-device link (PCIe on both boards).
type Link struct {
	spec device.LinkSpec
}

// NewLink returns a link model.
func NewLink(spec device.LinkSpec) (*Link, error) {
	if spec.PeakBandwidth <= 0 || spec.PacketBytes <= 0 {
		return nil, fmt.Errorf("memsim: link spec needs positive bandwidth and packet size")
	}
	if spec.Overhead < 0 || spec.Overhead >= 1 {
		return nil, fmt.Errorf("memsim: link overhead fraction %v out of [0,1)", spec.Overhead)
	}
	return &Link{spec: spec}, nil
}

// TransferSeconds returns the time to move the given bytes across the
// link in one DMA: round-trip latency plus packetised payload at the
// protocol-efficiency-derated rate.
func (l *Link) TransferSeconds(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	payloadRate := l.spec.PeakBandwidth * (1 - l.spec.Overhead)
	packets := (bytes + int64(l.spec.PacketBytes) - 1) / int64(l.spec.PacketBytes)
	// Each packet re-pays header serialisation, folded into Overhead;
	// latency is paid once per DMA, plus a per-packet pipeline bubble.
	return l.spec.LatencySec + float64(bytes)/payloadRate + float64(packets)*2e-9
}

// SustainedBandwidth returns the effective link bytes/second for a
// transfer of the given size.
func (l *Link) SustainedBandwidth(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / l.TransferSeconds(bytes)
}
