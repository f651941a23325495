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
	"slices"
	"sync/atomic"

	"repro/internal/device"
)

// DRAM simulates one device-DRAM channel.
type DRAM struct {
	spec device.DRAMSpec
	// openRow[b] is the row id currently latched in bank b's row buffer,
	// or -1 when the bank is precharged.
	openRow []int64
}

// NewDRAM returns a DRAM channel with all banks precharged. The clock
// and bandwidth must be positive and finite, the set-up time finite and
// non-negative, and the miss and transaction cycles non-negative: a NaN
// or negative field would turn every measurement, and every ρG built
// from it, into NaN or a negative number.
func NewDRAM(spec device.DRAMSpec) (*DRAM, error) {
	if spec.Banks <= 0 || spec.RowBytes <= 0 || spec.BurstBytes <= 0 {
		return nil, fmt.Errorf("memsim: DRAM spec needs positive banks/row/burst, got %+v", spec)
	}
	if !positiveFinite(spec.ClockHz) || !positiveFinite(spec.PeakBandwidth) {
		return nil, fmt.Errorf("memsim: DRAM spec needs positive clock and bandwidth")
	}
	if !(spec.SetupSeconds >= 0) || math.IsInf(spec.SetupSeconds, 1) {
		return nil, fmt.Errorf("memsim: DRAM setup time %v must be finite and non-negative", spec.SetupSeconds)
	}
	if spec.RowMissCycles < 0 || spec.TransCycles < 0 {
		return nil, fmt.Errorf("memsim: DRAM row-miss and transaction cycles must be non-negative, got %d and %d",
			spec.RowMissCycles, spec.TransCycles)
	}
	d := &DRAM{spec: spec, openRow: make([]int64, spec.Banks)}
	d.Reset()
	return d, nil
}

// positiveFinite reports whether x is a positive real number: NaN and
// +Inf fail it.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

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

// ColumnWalkSeconds returns the time to read a dim×dim array of
// elemBytes-byte elements, stored row by row from address 0, one column
// after another: dim passes, pass c streaming dim elements at stride dim
// from byte c·elemBytes, their seconds summed in pass order. It is one
// StreamSeconds call per pass, bit for bit and row buffers included.
//
// A walk depends only on the rows it touches and the row buffers it
// starts from, so a pass with the previous pass's rows and starting row
// buffers has the previous pass's seconds and leaves the row buffers as
// it found them; such a pass is not walked. Pass c+1's addresses are
// pass c's plus elemBytes, so it touches pass c's rows unless a pass-c
// address lies within elemBytes of the end of its row. Pass c's offsets
// within their rows are pass 0's shifted by c·elemBytes, so the test
// needs pass 0's offsets only: O(dim) memory, whatever the row size,
// plus one copy of the row buffers. Within a run of passes that share
// their rows at most two are walked: the second starts from the row
// buffers the first left, and so leaves them as it found them.
func (d *DRAM) ColumnWalkSeconds(dim int64, elemBytes int) (float64, error) {
	if dim <= 1 {
		// No pass, or one element streamed contiguously (stride 1).
		return d.StreamSeconds(0, dim, elemBytes, dim)
	}
	if elemBytes <= 0 {
		return 0, fmt.Errorf("memsim: element size must be positive, got %d", elemBytes)
	}
	elem, rowBytes := int64(elemBytes), int64(d.spec.RowBytes)
	step, ok := walkStep(0, dim, dim, elem)
	if !ok {
		return 0, errOverrun(0, dim, elemBytes, dim)
	}
	offs := make([]int64, dim) // pass 0's in-row offsets, ascending
	for i := range offs {
		offs[i] = int64(i) * step % rowBytes
	}
	slices.Sort(offs)
	// crosses reports whether pass c+1 touches a row pass c does not:
	// whether pass c's largest in-row offset is within elemBytes of the
	// row's end. Shifted by c·elemBytes, the offsets below rowBytes-shift
	// are the largest; the rest wrap to the row's start. offs[0] is 0, so
	// the search never returns 0.
	crosses := func(c int64) bool {
		shift := c * elem % rowBytes
		i, _ := slices.BinarySearch(offs, rowBytes-shift)
		return offs[i-1]+shift >= rowBytes-elem
	}
	hit := d.burstCycles() + float64(d.spec.TransCycles)
	var secs, passSecs float64
	var before []int64
	reuse := false // pass c has pass c-1's rows and starting row buffers
	for c := int64(0); c < dim; c++ {
		base := c * elem
		if _, ok := walkStep(base, dim, dim, elem); !ok {
			return 0, errOverrun(base, dim, elemBytes, dim)
		}
		sameRows := c+1 < dim && !crosses(c)
		if reuse {
			secs += passSecs
			reuse = sameRows
			continue
		}
		if sameRows {
			before = append(before[:0], d.openRow...)
		}
		passSecs = d.walk(base, dim, step, hit)/d.spec.ClockHz + d.spec.SetupSeconds
		secs += passSecs
		reuse = sameRows && slices.Equal(before, d.openRow)
	}
	return secs, nil
}

func errOverrun(base, n int64, elemBytes int, strideElems int64) error {
	return fmt.Errorf("memsim: stream of %d %d-byte elements at stride %d from address %d overruns the int64 address space",
		n, elemBytes, strideElems, base)
}

// walked counts the accesses walk has simulated in this process, one
// atomic add per call; a test reads it to gate the cost of the bandwidth
// benchmark, whose wall time CI cannot gate.
var walked atomic.Int64

// walk accounts count >= 1 accesses at base, base+step, base+2·step, ...
// (base >= 0, step >= 0, last address within int64) and returns their
// cycles: hit per row-buffer hit, hit+RowMissCycles per miss, summed in
// access order. It is touch applied to each address, bit for bit: the
// row, the offset within it and the bank advance by the step's quotient
// and remainder instead of being divided out of every address.
func (d *DRAM) walk(base, count, step int64, hit float64) float64 {
	walked.Add(count)
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

// NewLink returns a link model. Bandwidth, latency and overhead must be
// finite: a NaN in any of them makes every ρH NaN.
func NewLink(spec device.LinkSpec) (*Link, error) {
	if !positiveFinite(spec.PeakBandwidth) || spec.PacketBytes <= 0 {
		return nil, fmt.Errorf("memsim: link spec needs positive bandwidth and packet size")
	}
	if !(spec.LatencySec >= 0) || math.IsInf(spec.LatencySec, 1) {
		return nil, fmt.Errorf("memsim: link latency %v must be finite and non-negative", spec.LatencySec)
	}
	if !(spec.Overhead >= 0 && spec.Overhead < 1) {
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
