package fabric

import (
	"math"

	"repro/internal/device"
	"repro/internal/elab"
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

// Synthesize maps the elaborated design: every reachable pipe/comb
// function is mapped once and replicated by its instance multiplicity;
// stream controllers and offset windows are added; finally the global
// packing pass applies the cross-boundary optimisations (constant
// sharing, register retiming) a real tool performs and a
// per-instruction cost model cannot see.
func (s *Synthesizer) Synthesize(d *elab.Design) *Netlist {
	m := d.Module()
	nl := &Netlist{Module: m, Target: s.Target, PerFunc: map[string]device.Resources{}}

	total := device.Resources{}
	critPathNs := 0.0
	// The node count only sets the congestion penalty; a float sum
	// cannot wrap, and is exact for any design below 2^53 nodes.
	totalNodes := 0.0
	for _, f := range m.Funcs {
		n := d.Node(f)
		if n == nil {
			continue
		}
		switch f.Mode {
		case tir.ModePipe, tir.ModeComb:
			r, ns, nodes := s.mapDatapath(n)
			nl.PerFunc[f.Name] = r
			total = total.Add(r.Scale(int(n.Mult)))
			if ns > critPathNs {
				critPathNs = ns
			}
			totalNodes += float64(nodes) * float64(n.Mult)
		case tir.ModePar, tir.ModeSeq:
			// Structural only: a small arbiter/sequencer per instance.
			r := device.Resources{ALUTs: 24 + 8*len(n.Calls), Regs: 32 + 6*len(n.Calls)}
			nl.PerFunc[f.Name] = r
			total = total.Add(r.Scale(int(n.Mult)))
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
	congestion := 1.0 + 0.015*math.Log2(1+totalNodes)
	f := 1e9 / (critPathNs * congestion)
	if f > s.Target.FmaxHz {
		f = s.Target.FmaxHz
	}
	nl.FmaxHz = f
	return nl
}

// mapDatapath maps one pipe/comb function to resources: per-instruction
// functional units, schedule-derived balancing registers, stream
// controllers and offset buffers.
func (s *Synthesizer) mapDatapath(n *elab.Node) (device.Resources, float64, int) {
	f := n.Func
	r := device.Resources{}
	worstNs := 0.0
	nodes := 0
	for _, in := range f.Body {
		if _, call := in.(*tir.CallInstr); call {
			continue
		}
		c := opCost(s.Target, in)
		r = r.Add(c)
		nodes++
		if ns := primDelayNs(in); ns > worstNs {
			worstNs = ns
		}
	}

	// Balancing delay lines: runs of >= 4 cycles are extracted into
	// LUT-based shift registers (1 ALUT per 2 bits stands in for the
	// SRL/MLAB packing real mappers do); shorter runs burn flip-flops.
	for _, d := range n.Sched.Delays {
		if d.Cycles >= 4 {
			r.ALUTs += d.Bits * (d.Cycles + 1) / 2 / 8
			r.Regs += d.Bits // output register of the chain
		} else {
			r.Regs += d.Bits * d.Cycles
		}
	}

	// Stream controllers: one per port of this function — address
	// generator, counter and handshake.
	r.ALUTs += 14 * len(f.Params)
	r.Regs += 22 * len(f.Params)

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
	return r, worstNs, nodes
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
