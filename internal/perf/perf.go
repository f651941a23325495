// Package perf implements the paper's throughput cost model (§V-B): the
// EKIT — Effective Kernel-Instance Throughput — under the three
// memory-execution forms of the memory-execution model (§III-5, Fig 6),
// with the Table I parameters extracted from a costed design variant,
// the target description, and the empirical bandwidth model.
//
// Extraction has two halves. The stream inventory (Inventory) walks
// the design's ports, streams and memory objects against the
// bandwidth model; it depends on the module and its lane count only.
// Params then combines it with one estimate and the workload. Extract
// is the two in one call; a caller pricing every dv of a design keeps
// the Inventory and pays the walk once.
package perf

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/costmodel"
	"repro/internal/membw"
	"repro/internal/tir"
)

// Form is a memory-execution scenario (Fig 6).
type Form int

const (
	// FormA moves all NDRange data between host and device DRAM for
	// every kernel-instance.
	FormA Form = iota
	// FormB moves the data to device DRAM once; kernel-instances stream
	// from DRAM. The paper expects this form for most real scientific
	// applications.
	FormB
	// FormC keeps the working set in on-chip memory across iterations:
	// always compute-bound.
	FormC
)

// String names the form as in the paper.
func (f Form) String() string {
	switch f {
	case FormA:
		return "form-A"
	case FormB:
		return "form-B"
	case FormC:
		return "form-C"
	}
	return fmt.Sprintf("form-?(%d)", int(f))
}

// ParseForm parses "A"/"B"/"C" (or "form-A" etc.).
func ParseForm(s string) (Form, error) {
	switch s {
	case "A", "a", "form-A", "form-a":
		return FormA, nil
	case "B", "b", "form-B", "form-b":
		return FormB, nil
	case "C", "c", "form-C", "form-c":
		return FormC, nil
	}
	return 0, fmt.Errorf("perf: unknown memory-execution form %q", s)
}

// Params are the Table I parameters of the EKIT expressions.
type Params struct {
	HPB  float64 // host-device peak bandwidth, bytes/s (target description)
	RhoH float64 // host-link sustained/peak scale factor (empirical)
	GPB  float64 // device-DRAM peak bandwidth, bytes/s (target description)
	RhoG float64 // DRAM sustained/peak scale factor (empirical)

	NGS  int64 // global size: work-items per kernel-instance (parsed from IR)
	NWPT int   // words per tuple per work-item (parsed from IR)
	NKI  int64 // kernel-instance repetitions (workload)
	Noff int64 // maximum stream look-ahead (parsed from IR)
	KPD  int   // kernel pipeline depth (parsed from IR)

	FD  float64 // device operating frequency (design variant)
	NTO float64 // cycles per instruction slot (design variant)
	NI  int     // instructions per PE (parsed from IR)
	KNL int     // parallel kernel lanes (design variant)
	DV  int     // degree of vectorisation per lane (design variant)

	// WordBytes is the stream element size used to convert the paper's
	// word counts into the byte-denominated bandwidths.
	WordBytes int
	// Pipelined reports whether each lane accepts one work-item per
	// cycle (configurations C1/C2 of Fig 5): the pipelined reading of
	// the NTO·NI term, under which a lane's per-item cost is one cycle.
	Pipelined bool
}

// CyclesPerItem is the effective per-work-item issue cost of one lane:
// 1 for a pipelined lane, NTO·NI when the PE executes its instructions
// sequentially (the C4 region of the design space).
func (p *Params) CyclesPerItem() float64 {
	if p.Pipelined {
		return 1
	}
	return p.NTO * float64(p.NI)
}

// Validate reports parameters the equations cannot accept. The float
// checks are worded so that NaN fails them.
func (p *Params) Validate() error {
	switch {
	case !(p.HPB > 0 && p.GPB > 0):
		return fmt.Errorf("perf: peak bandwidths must be positive")
	case !(p.RhoH > 0 && p.RhoH <= 1 && p.RhoG > 0 && p.RhoG <= 1):
		return fmt.Errorf("perf: rho factors must be in (0,1], got rhoH=%v rhoG=%v", p.RhoH, p.RhoG)
	case p.NGS <= 0:
		return fmt.Errorf("perf: global size must be positive")
	case p.NWPT <= 0 || p.WordBytes <= 0:
		return fmt.Errorf("perf: words per tuple and word size must be positive")
	case p.NKI <= 0:
		return fmt.Errorf("perf: kernel-instance count must be positive")
	case !(p.FD > 0):
		return fmt.Errorf("perf: device frequency must be positive")
	case p.KNL <= 0 || p.DV <= 0:
		return fmt.Errorf("perf: lanes and vectorisation must be positive")
	case p.KPD < 0 || p.Noff < 0:
		return fmt.Errorf("perf: pipeline depth and offset cannot be negative")
	}
	return nil
}

// Limiter identifies the limiting wall of a Breakdown — the parameter
// the paper's cost model "exposes ... allowing targeted optimization".
// It is one byte, so a value that keeps only the wall of a breakdown
// (dse.Point) pays one byte for it.
type Limiter uint8

const (
	// LimitCompute: executing the work-items at FD across the lanes
	// dominates.
	LimitCompute Limiter = iota + 1
	// LimitDRAMBandwidth: streaming the NDRange through device DRAM
	// dominates.
	LimitDRAMBandwidth
	// LimitHostBandwidth: the (amortised) host <-> device-DRAM transfer
	// dominates.
	LimitHostBandwidth
)

// String names the wall as the tables and reports print it: "compute",
// "dram-bandwidth" or "host-bandwidth". The zero value, a breakdown not
// yet evaluated, prints "".
func (l Limiter) String() string {
	switch l {
	case 0:
		return ""
	case LimitCompute:
		return "compute"
	case LimitDRAMBandwidth:
		return "dram-bandwidth"
	case LimitHostBandwidth:
		return "host-bandwidth"
	}
	return fmt.Sprintf("limiter-?(%d)", uint8(l))
}

// Breakdown decomposes the kernel-instance execution time into the terms
// of Equations 1-3, and identifies the limiting wall.
type Breakdown struct {
	HostXfer   float64 // host <-> device-DRAM transfer (amortised per instance)
	OffsetFill float64 // offset stream buffer priming
	PipeFill   float64 // pipeline fill
	StreamDRAM float64 // streaming the NDRange through device DRAM
	Compute    float64 // executing all work-items at FD across lanes
	// Total is the per-kernel-instance time: the reciprocal of EKIT.
	Total float64
	// Limiter is the dominant steady-state term.
	Limiter Limiter
}

// EKIT evaluates the throughput expression for the given form
// (Equations 1, 2, 3), returning kernel-instances per second and the
// time breakdown.
func (p *Params) EKIT(form Form) (float64, Breakdown, error) {
	if err := p.Validate(); err != nil {
		return 0, Breakdown{}, err
	}
	var b Breakdown

	totalBytes := float64(p.NGS) * float64(p.NWPT) * float64(p.WordBytes)

	// Host transfer: every instance for form A; once over NKI instances
	// for forms B and C.
	b.HostXfer = totalBytes / (p.HPB * p.RhoH)
	if form != FormA {
		b.HostXfer /= float64(p.NKI)
	}

	// Offset priming and pipeline fill.
	b.OffsetFill = float64(p.Noff) * float64(p.WordBytes) / (p.GPB * p.RhoG)
	b.PipeFill = float64(p.KPD) / p.FD

	// Steady-state: DRAM streaming vs compute.
	b.StreamDRAM = totalBytes / (p.GPB * p.RhoG)
	b.Compute = float64(p.NGS) * p.CyclesPerItem() / (p.FD * float64(p.KNL) * float64(p.DV))

	steady := math.Max(b.StreamDRAM, b.Compute)
	if form == FormC {
		// On-chip working set: never DRAM-bound (Equation 3 keeps only
		// the compute argument of the max).
		steady = b.Compute
		b.StreamDRAM = 0
	}

	b.Total = b.HostXfer + b.OffsetFill + b.PipeFill + steady

	// The wall: compare the steady-state terms plus the amortised host
	// cost. (The fill terms are one-off and cannot be a wall.)
	b.Limiter = LimitCompute
	worst := b.Compute
	if form != FormC && b.StreamDRAM > worst {
		b.Limiter = LimitDRAMBandwidth
		worst = b.StreamDRAM
	}
	if b.HostXfer > worst {
		b.Limiter = LimitHostBandwidth
	}

	return 1 / b.Total, b, nil
}

// Workload describes how a kernel-instance is repeated and how large its
// host working set is — the inputs to Extract that do not come from the
// IR.
type Workload struct {
	// NKI is the number of kernel-instance repetitions (e.g. the SOR
	// solver's nmaxp iteration count).
	NKI int64
	// DV is the degree of vectorisation per lane; 1 unless the variant
	// vectorises.
	DV int
}

// Inventory is a design's stream inventory: everything Extract derives
// from the module's ports, streams and memory objects — the stream
// element size, the port count, the global size, the bytes and
// channel-serialised DRAM time of all streams and the host-link ρH
// they imply. It depends on the module, its lane count and the
// bandwidth model only, never on dv or the workload, so a caller
// pricing every dv of a design builds it once and prices each estimate
// with Params.
type Inventory struct {
	module *tir.Module
	lanes  int

	wordBytes  int
	ports      int
	ngs        int64
	totalBytes float64
	chanTime   float64
	rhoH       float64

	// err is the stream the inventory could not resolve; Params reports
	// it after the workload checks, in Extract's order.
	err error
}

// NewInventory takes the stream inventory of the module at the given
// lane count (values below 1 count as 1) against the bandwidth model.
// Ports resolve to streams, and streams to memory objects, through one
// map each; the first declaration of a name wins, as in
// tir.Module.Stream and MemObject.
func NewInventory(m *tir.Module, lanes int, bw *membw.Model) *Inventory {
	inv := &Inventory{module: m, lanes: max(lanes, 1)}
	if m == nil {
		inv.err = errNoStreams
		return inv
	}
	streams := make(map[string]*tir.StreamObject, len(m.Streams))
	for _, so := range m.Streams {
		if _, dup := streams[so.Name]; !dup {
			streams[so.Name] = so
		}
	}
	mems := make(map[string]*tir.MemObject, len(m.MemObjects))
	for _, mo := range m.MemObjects {
		if _, dup := mems[mo.Name]; !dup {
			mems[mo.Name] = mo
		}
	}
	// Per-lane words per item, element size, and the channel-serialised
	// effective DRAM bandwidth across all streams.
	for _, port := range m.Ports {
		so := streams[port.Stream]
		if so == nil {
			inv.err = fmt.Errorf("perf: port @%s has no stream object", port.Name)
			return inv
		}
		mo := mems[so.Mem]
		if mo == nil {
			inv.err = fmt.Errorf("perf: stream %%%s has no memory object", so.Name)
			return inv
		}
		if port.Elem.Bytes() > inv.wordBytes {
			inv.wordBytes = port.Elem.Bytes()
		}
		bytes := mo.Bytes()
		sustained := bw.SustainedSteady(bytes, mo.Pattern)
		if sustained <= 0 {
			inv.err = fmt.Errorf("perf: no sustained bandwidth for stream %%%s", so.Name)
			return inv
		}
		inv.totalBytes += float64(bytes)
		inv.chanTime += float64(bytes) / sustained
		inv.ports++
		if port.Dir == tir.DirIn && mo.Size*int64(inv.lanes) > inv.ngs {
			inv.ngs = mo.Size * int64(inv.lanes)
		}
	}
	if inv.ports == 0 || inv.ngs == 0 {
		inv.err = errNoStreams
		return inv
	}
	inv.rhoH = bw.RhoH(int64(inv.totalBytes))
	return inv
}

var errNoStreams = errors.New("perf: design has no streams to extract parameters from")

// Params assembles the Table I parameters of an estimate of the
// inventory's design: structural parameters from the estimate (which
// parsed the IR), peak bandwidths from the target description, and
// rho scale factors from the inventory. It checks the workload first,
// then reports any stream the inventory could not resolve.
func (inv *Inventory) Params(est *costmodel.Estimate, w Workload) (Params, error) {
	if w.NKI <= 0 {
		return Params{}, fmt.Errorf("perf: workload needs NKI >= 1, got %d", w.NKI)
	}
	dv := w.DV
	if dv == 0 {
		dv = 1
	}
	// A vectorised estimate carries its own DV; the workload may not
	// contradict it.
	if est.DV > 1 {
		if w.DV > 1 && w.DV != est.DV {
			return Params{}, fmt.Errorf("perf: workload DV %d contradicts the estimate's DV %d", w.DV, est.DV)
		}
		dv = est.DV
	}
	if inv.err != nil {
		return Params{}, inv.err
	}
	if est.Module != inv.module || max(est.Lanes, 1) != inv.lanes {
		return Params{}, fmt.Errorf("perf: the estimate is not of the inventory's %d-lane design", inv.lanes)
	}

	t := est.Target
	rhoG := (inv.totalBytes / inv.chanTime) / t.DRAM.PeakBandwidth
	if rhoG > 1 {
		rhoG = 1
	}

	pipelined := est.Config == tir.ConfigPipe || est.Config == tir.ConfigParPipes ||
		est.Config == tir.ConfigCoarsePipe || est.Config == tir.ConfigParCoarse

	return Params{
		HPB:       t.Link.PeakBandwidth,
		RhoH:      inv.rhoH,
		GPB:       t.DRAM.PeakBandwidth,
		RhoG:      rhoG,
		NGS:       inv.ngs,
		NWPT:      inv.ports / inv.lanes,
		NKI:       w.NKI,
		Noff:      est.Noff,
		KPD:       est.KPD,
		FD:        est.FmaxHz,
		NTO:       float64(est.NTO),
		NI:        est.NI,
		KNL:       inv.lanes,
		DV:        dv,
		WordBytes: inv.wordBytes,
		Pipelined: pipelined,
	}, nil
}

// Extract assembles the Table I parameters for a costed design variant:
// structural parameters from the estimate (which parsed the IR), peak
// bandwidths from the target description, and rho scale factors from the
// empirical bandwidth model, per stream access pattern and size
// (Table I's "evaluation method" column). It is the stream inventory
// of the estimate's module priced once; callers pricing many estimates
// of one design keep the Inventory instead.
func Extract(est *costmodel.Estimate, bw *membw.Model, w Workload) (Params, error) {
	return NewInventory(est.Module, est.Lanes, bw).Params(est, w)
}
