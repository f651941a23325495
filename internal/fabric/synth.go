package fabric

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/schedule"
	"repro/internal/tir"
)

// Netlist is the result of synthesising a design: the "actual" numbers a
// vendor tool would report after place and route, which Table II compares
// the cost model's estimates against.
type Netlist struct {
	Module  *tir.Module
	Target  *device.Target
	Used    device.Resources
	FmaxHz  float64
	PerFunc map[string]device.Resources // one lane of each function
}

// Synthesizer maps modules onto a target device.
type Synthesizer struct {
	Target *device.Target
}

// New returns a synthesizer for the target.
func New(t *device.Target) *Synthesizer { return &Synthesizer{Target: t} }

// Synthesize maps the whole module: every pipe/comb function is mapped
// once, then replicated per the par structure; stream controllers and
// offset windows are added; finally the global packing pass applies the
// cross-boundary optimisations (constant sharing, register retiming) a
// real tool performs and a per-instruction cost model cannot see. The
// module is validated first, as for estimation and HDL emission.
func (s *Synthesizer) Synthesize(m *tir.Module) (*Netlist, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	nl := &Netlist{Module: m, Target: s.Target, PerFunc: map[string]device.Resources{}}

	// instances[f] = number of hardware copies of f implied by the call
	// tree (par parents replicate their children).
	instances := map[string]int{}
	var count func(fn *tir.Function, n int) error
	count = func(fn *tir.Function, n int) error {
		instances[fn.Name] += n
		for _, c := range fn.Calls() {
			callee := m.Func(c.Callee)
			if callee == nil {
				return fmt.Errorf("fabric: unknown callee @%s", c.Callee)
			}
			if err := count(callee, n); err != nil {
				return err
			}
		}
		return nil
	}
	if err := count(m.Main(), 1); err != nil {
		return nil, err
	}

	total := device.Resources{}
	critPathNs := 0.0
	totalNodes := 0
	for _, f := range m.Funcs {
		n := instances[f.Name]
		if n == 0 {
			continue
		}
		switch f.Mode {
		case tir.ModePipe, tir.ModeComb:
			r, ns, nodes, err := s.mapDatapath(m, f)
			if err != nil {
				return nil, err
			}
			nl.PerFunc[f.Name] = r
			total = total.Add(r.Scale(n))
			if ns > critPathNs {
				critPathNs = ns
			}
			totalNodes += nodes * n
		case tir.ModePar, tir.ModeSeq:
			// Structural only: a small arbiter/sequencer per instance.
			r := device.Resources{ALUTs: 24 + 8*len(f.Calls()), Regs: 32 + 6*len(f.Calls())}
			nl.PerFunc[f.Name] = r
			total = total.Add(r.Scale(n))
		}
	}

	// Global packing pass: constant sharing and register retiming are
	// applied across the design. Retiming absorbs ~6% of plain registers
	// into carry-chain and memory-block output registers; duplicate
	// control logic across lanes shares decoders (~2% ALUTs back).
	total.Regs = int(float64(total.Regs) * 0.94)
	total.ALUTs = int(float64(total.ALUTs) * 0.98)

	// Top-level clock/reset distribution and host-interface shim.
	total.ALUTs += 120
	total.Regs += 180

	nl.Used = total

	// Fmax: the slowest primitive sets the base period; congestion adds
	// a routing penalty growing with design size.
	if critPathNs == 0 {
		critPathNs = 2.0
	}
	congestion := 1.0 + 0.015*math.Log2(1+float64(totalNodes))
	f := 1e9 / (critPathNs * congestion)
	if f > s.Target.FmaxHz {
		f = s.Target.FmaxHz
	}
	nl.FmaxHz = f
	return nl, nil
}

// mapDatapath maps one pipe/comb function to resources: per-instruction
// functional units, schedule-derived balancing registers, stream
// controllers and offset buffers.
func (s *Synthesizer) mapDatapath(m *tir.Module, f *tir.Function) (device.Resources, float64, int, error) {
	r := device.Resources{}
	worstNs := 0.0
	nodes := 0
	for _, in := range f.DatapathInstrs() {
		c := opCost(s.Target, in)
		r = r.Add(c)
		nodes++
		if ns := primDelayNs(in); ns > worstNs {
			worstNs = ns
		}
	}

	sched, err := schedule.ASAPIn(m, f)
	if err != nil {
		return device.Resources{}, 0, 0, err
	}
	// Balancing delay lines: runs of >= 4 cycles are extracted into
	// LUT-based shift registers (1 ALUT per 2 bits stands in for the
	// SRL/MLAB packing real mappers do); shorter runs burn flip-flops.
	for _, d := range sched.Delays {
		if d.Cycles >= 4 {
			r.ALUTs += d.Bits * (d.Cycles + 1) / 2 / 8
			r.Regs += d.Bits // output register of the chain
		} else {
			r.Regs += d.Bits * d.Cycles
		}
	}

	// Stream controllers: one per port of this function — address
	// generator, counter and handshake.
	ports := 0
	for range f.Params {
		ports++
	}
	r.ALUTs += 14 * ports
	r.Regs += 22 * ports

	// Offset windows: the stream controller holds Window() elements per
	// offset stream. Small windows pack into registers; larger ones are
	// placed in block RAM with whole-block granularity tracked as bits
	// used (Table II reports bits).
	for _, w := range schedule.OffsetWindows(f) {
		windowBits := (w.Window() - 1) * int64(w.Bits)
		if windowBits <= 0 {
			continue
		}
		if windowBits <= 256 {
			r.Regs += int(windowBits)
		} else {
			r.BRAM += int(windowBits)
			// Address counters + read port mux for the taps.
			r.ALUTs += 18
			r.Regs += 24
		}
	}
	return r, worstNs, nodes, nil
}

// primDelayNs is the post-routing critical delay of a primitive: the
// quantity from which achieved Fmax is derived.
func primDelayNs(in tir.Instr) float64 {
	switch it := in.(type) {
	case *tir.BinInstr:
		w := float64(it.Ty.Bits)
		switch it.Op {
		case tir.OpAdd, tir.OpSub:
			return 1.6 + w*0.02
		case tir.OpMul:
			if _, c := constOperand(it); c {
				return 2.0 + w*0.03
			}
			return 2.4 + w*0.02
		case tir.OpDiv, tir.OpRem:
			return 2.8 + w*0.035
		case tir.OpMin, tir.OpMax:
			return 1.9 + w*0.02
		case tir.OpFAdd, tir.OpFSub, tir.OpFMul:
			return 3.0
		case tir.OpFDiv:
			return 3.6
		default:
			return 1.4 + w*0.01
		}
	case *tir.UnInstr:
		w := float64(it.Ty.Bits)
		if it.Op == tir.OpRecip || it.Op == tir.OpSqrt {
			return 2.9 + w*0.03
		}
		return 1.5 + w*0.01
	case *tir.CmpInstr:
		return 1.8 + float64(it.Ty.Bits)*0.015
	case *tir.SelectInstr:
		return 1.5
	}
	return 1.2
}

// CyclesPerKernelInstance executes nothing: it derives the actual CPKI
// of the synthesised design structurally. The real cycle count comes
// from the pipeline simulator (internal/pipesim); this helper provides
// the fabric's own static view used for cross-checks.
func (nl *Netlist) CyclesPerKernelInstance(globalSize int64) (int64, error) {
	m := nl.Module
	lanes := int64(m.Lanes())
	var kpd, noff int64
	for _, f := range m.Funcs {
		if f.Mode != tir.ModePipe && f.Mode != tir.ModeComb {
			continue
		}
		sch, err := schedule.ASAPIn(m, f)
		if err != nil {
			return 0, err
		}
		kpd += int64(sch.Depth)
		if n := schedule.MaxOffset(f); n > noff {
			noff = n
		}
	}
	if lanes <= 0 {
		lanes = 1
	}
	return noff + kpd + (globalSize+lanes-1)/lanes, nil
}
