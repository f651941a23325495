package costmodel

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/elab"
	"repro/internal/schedule"
	"repro/internal/tir"
)

// EstimateOracle is the tree-walk reference the compiled program is
// pinned to, kept the way pipesim keeps RunOracle: it costs the design
// with each lane vectorised to dv work-items per cycle by walking the
// IR, pricing each reachable function once, in m.Funcs order, scaled by
// its instance multiplicity, and re-evaluating every instruction's
// fitted expression. Production code must not call it: Estimate and
// Bind(Lower(d)) price every design, and only the differential tests
// and the estimator benchmarks compare against this walk.
func (mdl *Model) EstimateOracle(d *elab.Design, dv int) (*Estimate, error) {
	if dv < 1 {
		return nil, fmt.Errorf("costmodel: vectorisation degree must be >= 1, got %d", dv)
	}
	shape, err := laneShape(d)
	if err != nil {
		return nil, err
	}
	m := d.Module()
	total := device.Resources{}
	for _, f := range m.Funcs {
		n := d.Node(f)
		if n == nil {
			continue
		}
		var r device.Resources
		switch f.Mode {
		case tir.ModePipe, tir.ModeComb:
			r = mdl.estimateDatapath(n, dv)
		case tir.ModePar, tir.ModeSeq:
			calls := len(n.Calls)
			r = device.Resources{
				ALUTs: mdl.ParNodeALUTs + mdl.ParCallALUTs*calls,
				Regs:  mdl.ParNodeRegs + mdl.ParCallRegs*calls,
			}
		}
		total = total.Add(r.Scale(int(n.Mult)))
	}
	// Design-level constant: clock/reset distribution and the host
	// interface shim, measured once during calibration. The model does
	// not see cross-design packing effects (retiming, constant sharing),
	// which is where its residual error comes from.
	total.ALUTs += mdl.ShimALUTs
	total.Regs += mdl.ShimRegs

	return &Estimate{
		Module: m,
		Target: mdl.Target,
		Used:   total,
		KPD:    shape.depth,
		Noff:   shape.noff,
		NI:     shape.ni,
		Lanes:  d.Lanes(),
		DV:     dv,
		NTO:    1,
		FmaxHz: mdl.Target.FmaxHz,
		Config: d.Config(),
	}, nil
}

// estimateDatapath costs one pipe/comb function: fitted per-instruction
// expressions, schedule-derived balancing registers, stream controllers
// and offset windows.
func (mdl *Model) estimateDatapath(n *elab.Node, dv int) device.Resources {
	f := n.Func
	r := device.Resources{}
	for _, in := range f.Body {
		if _, call := in.(*tir.CallInstr); !call {
			r = r.Add(mdl.instrCost(in))
		}
	}

	// Balancing delay lines, same extraction rule the back-end applies:
	// long runs become LUT shift registers, short runs flip-flops.
	for _, d := range n.Sched.Delays {
		if d.Cycles >= 4 {
			r.ALUTs += d.Bits * (d.Cycles + 1) / 2 / 8
			r.Regs += d.Bits
		} else {
			r.Regs += d.Bits * d.Cycles
		}
	}

	// Vectorisation replicates the datapath and its balancing registers
	// dv times within the lane.
	r = r.Scale(dv)

	// Stream controllers, one per parameter port. A vectorised lane
	// widens each controller rather than replicating it: the address
	// generator is shared, the data path doubles per way — costed as one
	// controller plus half a controller per extra way, rounded up.
	ctrlUnits := 2 + (dv - 1) // in half-controllers: 2 + (dv-1)·1
	r.ALUTs += mdl.StreamCtrlALUTs * len(f.Params) * ctrlUnits / 2
	r.Regs += mdl.StreamCtrlRegs * len(f.Params) * ctrlUnits / 2

	// Offset windows: the model books Window() elements per stream (the
	// controller's nominal capacity); small windows in registers, large
	// ones in block RAM. The buffered element count is a property of the
	// stencil, not of dv; vectorisation adds dv-way tap multiplexers.
	for _, w := range schedule.OffsetWindows(f) {
		windowBits := w.Window() * int64(w.Bits)
		if windowBits <= 0 {
			continue
		}
		if windowBits <= 256 {
			r.Regs += int(windowBits)
		} else {
			r.BRAM += int(windowBits)
			r.ALUTs += mdl.BRAMWindowALUTs * dv
			r.Regs += mdl.BRAMWindowRegs * dv
		}
	}
	return r
}

// instrCost is the fitted per-instruction estimate, one row of the
// "similar or simpler expressions" the paper accumulates (§V-A).
func (mdl *Model) instrCost(in tir.Instr) device.Resources {
	switch it := in.(type) {
	case *tir.ConstInstr, *tir.OffsetInstr:
		// Constants become tie-offs; offset buffering is booked per
		// stream window.
		return device.Resources{}
	case *tir.CmpInstr:
		w := it.Ty.Bits
		return device.Resources{ALUTs: (w+1)/2 + 1, Regs: 1}
	case *tir.SelectInstr:
		w := it.Ty.Bits
		return device.Resources{ALUTs: w, Regs: w}
	case *tir.UnInstr:
		if oc, ok := mdl.Ops[it.Op]; ok {
			return oc.Resources(it.Ty.Bits)
		}
	case *tir.BinInstr:
		w := it.Ty.Bits
		// Constant-operand strength reduction: the model recodes the
		// constant exactly as synthesis will, so it knows a power-of-two
		// multiply is wiring and a shift by a constant is free.
		if k, isConst := binConstOperand(it); isConst {
			switch it.Op {
			case tir.OpMul:
				return device.Resources{ALUTs: ConstMulALUTs(w, k), Regs: 2 * w}
			case tir.OpShl, tir.OpLshr, tir.OpAshr:
				return device.Resources{Regs: w}
			}
		}
		if oc, ok := mdl.Ops[it.Op]; ok {
			return oc.Resources(w)
		}
	}
	return device.Resources{}
}
