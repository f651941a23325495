package costmodel

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/elab"
	"repro/internal/schedule"
	"repro/internal/tir"
)

// CompiledModel is one (kernel IR × calibrated target) pair compiled
// into a flat estimate program. Compilation has two halves. Lower
// reads the elaborated design exactly once — instance multiplicities,
// datapath instructions, schedules, offset windows, lane shape — into a
// target-independent Lowered. Bind prices that against one calibrated model: every
// per-instruction fitted expression is evaluated once per distinct
// operand width into dense per-width cost arrays. What remains per
// variant is closed-form arithmetic over the dv axis scalar:
// EstimateVectorised(dv) runs in O(distinct instruction classes) with a
// single allocation (the returned Estimate), instead of re-walking the
// IR and re-evaluating the fits like the tree-walk oracle.
//
// This is the only estimator production code runs: Model.Estimate is
// Bind(Lower(d)) evaluated at dv = 1. The program is pinned
// bit-identical to the tree walk, Model.EstimateOracle, for every dv
// (the differential tests): the same saturating Resources arithmetic
// in the same order, the same integer divisions applied last. Only
// tests call the tree walk.
//
// A CompiledModel is immutable after Bind and safe for concurrent use;
// the Lowered it was bound from is shared, read-only, by every target's
// CompiledModel of the same module.
type CompiledModel struct {
	mdl *Model
	low *Lowered

	// base holds, per lowered function, its dv-independent cost against
	// the model: for a datapath function the one-way datapath (priced
	// instruction classes plus balancing delay lines), which the
	// evaluator scales by dv; for a par/seq node its arbitration cost,
	// used verbatim.
	base []device.Resources
}

// instrClass identifies one distinct cost class of datapath
// instructions: instructions of the same class evaluate to the same
// per-instruction cost, so the compiler prices each class once and
// multiplies by its population.
type instrClass struct {
	kind  uint8 // one of kCmp..kConstShift
	op    tir.Opcode
	width int
	// csd is the canonical-signed-digit count of a constant-multiply
	// class: the cost of an immediate multiply depends on the constant
	// only through it.
	csd int
}

const (
	kCmp uint8 = iota
	kSel
	kUn
	kBin
	kConstMul
	kConstShift
)

// opCostTable caches evaluated per-opcode fitted expressions in dense
// per-width arrays, so each (opcode, width) pair is priced through the
// Expr families exactly once per Bind.
type opCostTable struct {
	mdl   *Model
	costs map[tir.Opcode][]device.Resources
	have  map[tir.Opcode][]bool
}

func newOpCostTable(mdl *Model) *opCostTable {
	return &opCostTable{
		mdl:   mdl,
		costs: map[tir.Opcode][]device.Resources{},
		have:  map[tir.Opcode][]bool{},
	}
}

// cost returns the fitted cost of op at width w, evaluating it on
// first use and answering repeats from the dense array.
func (t *opCostTable) cost(op tir.Opcode, w int) device.Resources {
	cs, hs := t.costs[op], t.have[op]
	if w >= len(cs) {
		grown := make([]device.Resources, w+1)
		copy(grown, cs)
		cs = grown
		grownH := make([]bool, w+1)
		copy(grownH, hs)
		hs = grownH
		t.costs[op], t.have[op] = cs, hs
	}
	if !hs[w] {
		if oc, ok := t.mdl.Ops[op]; ok {
			cs[w] = oc.Resources(w)
		}
		hs[w] = true
	}
	return cs[w]
}

// classCost prices one instruction class through the dense tables.
// Classes with closed-form costs (compares, selects, strength-reduced
// constants) are computed directly — they are already O(1).
func (t *opCostTable) classCost(c instrClass) device.Resources {
	switch c.kind {
	case kCmp:
		return device.Resources{ALUTs: (c.width+1)/2 + 1, Regs: 1}
	case kSel:
		return device.Resources{ALUTs: c.width, Regs: c.width}
	case kConstMul:
		aluts := 0
		if c.csd > 1 {
			aluts = (c.csd - 1) * c.width
		}
		return device.Resources{ALUTs: aluts, Regs: 2 * c.width}
	case kConstShift:
		return device.Resources{Regs: c.width}
	case kUn, kBin:
		return t.cost(c.op, c.width)
	}
	return device.Resources{}
}

// classify maps one datapath instruction to its cost class, mirroring
// the oracle's per-instruction dispatch (instrCost) exactly. ok=false
// marks the zero-cost instructions (constants, offsets) the compiler
// skips.
func classify(in tir.Instr) (instrClass, bool) {
	switch it := in.(type) {
	case *tir.ConstInstr, *tir.OffsetInstr:
		return instrClass{}, false
	case *tir.CmpInstr:
		return instrClass{kind: kCmp, width: it.Ty.Bits}, true
	case *tir.SelectInstr:
		return instrClass{kind: kSel, width: it.Ty.Bits}, true
	case *tir.UnInstr:
		return instrClass{kind: kUn, op: it.Op, width: it.Ty.Bits}, true
	case *tir.BinInstr:
		if k, isConst := binConstOperand(it); isConst {
			switch it.Op {
			case tir.OpMul:
				return instrClass{kind: kConstMul, width: it.Ty.Bits, csd: CSDDigits(k)}, true
			case tir.OpShl, tir.OpLshr, tir.OpAshr:
				return instrClass{kind: kConstShift, width: it.Ty.Bits}, true
			}
		}
		return instrClass{kind: kBin, op: it.Op, width: it.Ty.Bits}, true
	}
	return instrClass{}, false
}

// Lowered is a design lowered for estimation: everything a compiled
// estimate program needs that reads no calibrated Model — the Fig 7
// classification, the instance multiplicities, each datapath
// function's instruction-class populations, balancing delay lines,
// stream ports and offset windows, and the lane shape (KPD, NI,
// Noff). Lowering depends only on the IR, so one Lowered serves every
// target: Bind prices it against a calibrated model. A Lowered is
// immutable and safe for concurrent use.
type Lowered struct {
	m     *tir.Module
	cfg   tir.Config
	kpd   int // includes the +2 ingress/egress registering
	ni    int
	noff  int64
	lanes int

	funcs []loweredFunc
}

// loweredFunc is what one function contributes to an estimate apart
// from the model's prices. Functions are stored in m.Funcs order, so
// the evaluator's saturating accumulation happens in exactly the
// oracle's order.
type loweredFunc struct {
	n          int  // hardware instance multiplicity
	structural bool // par/seq node: cost is dv-independent
	calls      int  // par/seq: the calls the node arbitrates

	// Datapath functions: instruction classes with their populations
	// (first-occurrence order) and the balancing delay lines' cost.
	classes               []classCount
	delayALUTs, delayRegs int
	// ports is the stream-controller count. The evaluator books
	// StreamCtrl·ports·(2+(dv-1))/2 with the integer division last,
	// exactly as the oracle writes it.
	ports int
	// Offset windows: total bits booked in registers (small windows)
	// and block RAM (large windows), and the number of BRAM-resident
	// windows, each of which pays a dv-way tap multiplexer.
	winRegs, winBRAM int
	bramWindows      int
}

// classCount is one instruction class and how many datapath
// instructions of a function fall into it.
type classCount struct {
	class instrClass
	n     int
}

// Lower lowers an elaborated design for estimation: every reachable
// datapath function's class populations, read with its schedule's
// delay lines and its offset windows, each function's instance
// multiplicity, and the lane shape all happen here, once per design,
// whatever the target.
func Lower(d *elab.Design) (*Lowered, error) {
	shape, err := laneShape(d)
	if err != nil {
		return nil, err
	}
	m := d.Module()
	l := &Lowered{m: m, cfg: d.Config(), lanes: d.Lanes(), kpd: shape.depth, ni: shape.ni, noff: shape.noff}
	for _, f := range m.Funcs {
		n := d.Node(f)
		if n == nil {
			continue
		}
		lf := loweredFunc{n: int(n.Mult)}
		switch f.Mode {
		case tir.ModePipe, tir.ModeComb:
			lowerDatapath(n, &lf)
		case tir.ModePar, tir.ModeSeq:
			lf.structural = true
			lf.calls = len(n.Calls)
		}
		l.funcs = append(l.funcs, lf)
	}
	return l, nil
}

// lowerDatapath lowers one pipe/comb function: its instruction-class
// populations, balancing delay lines, port count and offset windows.
func lowerDatapath(n *elab.Node, lf *loweredFunc) {
	f := n.Func
	at := map[instrClass]int{}
	for _, in := range f.Body {
		c, ok := classify(in)
		if !ok {
			continue
		}
		i, seen := at[c]
		if !seen {
			i = len(lf.classes)
			at[c] = i
			lf.classes = append(lf.classes, classCount{class: c})
		}
		lf.classes[i].n++
	}

	for _, d := range n.Sched.Delays {
		if d.Cycles >= 4 {
			lf.delayALUTs += d.Bits * (d.Cycles + 1) / 2 / 8
			lf.delayRegs += d.Bits
		} else {
			lf.delayRegs += d.Bits * d.Cycles
		}
	}
	lf.ports = len(f.Params)

	for _, w := range schedule.OffsetWindows(f) {
		windowBits := w.Window() * int64(w.Bits)
		if windowBits <= 0 {
			continue
		}
		if windowBits <= 256 {
			lf.winRegs += int(windowBits)
		} else {
			lf.winBRAM += int(windowBits)
			lf.bramWindows++
		}
	}
}

// Bind prices a lowered module against the calibrated model: each
// datapath function's instruction classes through the dense per-width
// cost tables, and each par/seq node's arbitration constants. The
// result answers EstimateVectorised for any dv without touching the IR
// again.
func (mdl *Model) Bind(l *Lowered) *CompiledModel {
	cm := &CompiledModel{mdl: mdl, low: l, base: make([]device.Resources, len(l.funcs))}
	table := newOpCostTable(mdl)
	for i := range l.funcs {
		lf := &l.funcs[i]
		if lf.structural {
			cm.base[i] = device.Resources{
				ALUTs: mdl.ParNodeALUTs + mdl.ParCallALUTs*lf.calls,
				Regs:  mdl.ParNodeRegs + mdl.ParCallRegs*lf.calls,
			}
			continue
		}
		// Per-instruction fitted expressions, priced once per distinct
		// class. The class contributions are non-negative, so the
		// class-grouped saturating sum is bit-identical to the oracle's
		// per-instruction chained Add in any order.
		r := device.Resources{}
		for _, c := range lf.classes {
			r = r.Add(table.classCost(c.class).Scale(c.n))
		}
		r.ALUTs += lf.delayALUTs
		r.Regs += lf.delayRegs
		cm.base[i] = r
	}
	return cm
}

// Compile elaborates the module, lowers it and binds it to the
// calibrated model, for the benchmark's replay and for tests that price
// a module at several dv. A caller pricing one design on several
// targets lowers it once and binds it per target instead.
func (mdl *Model) Compile(m *tir.Module) (*CompiledModel, error) {
	d, err := elab.Elaborate(m)
	if err != nil {
		return nil, err
	}
	l, err := Lower(d)
	if err != nil {
		return nil, err
	}
	return mdl.Bind(l), nil
}

// Module returns the module the program was compiled from.
func (cm *CompiledModel) Module() *tir.Module { return cm.low.m }

// Target returns the device the program prices against.
func (cm *CompiledModel) Target() *device.Target { return cm.mdl.Target }

// EstimateVectorised evaluates the flat program with each lane
// vectorised to dv work-items per cycle — the C3/C5 axis of the Fig 5
// design space. The vectorised lane model: the datapath and its
// balancing delay lines replicate dv times; the stream controller
// widens rather than replicates (one address generator fetching
// dv-element words, costed at half a controller per extra way); offset
// windows keep their total bits (same elements buffered) but pay dv-way
// tap multiplexers. Evaluation is closed-form arithmetic over the
// pre-compiled coefficients, one allocation (the returned Estimate), no
// IR access; the result is bit-identical to Model.EstimateOracle on the
// same design.
func (cm *CompiledModel) EstimateVectorised(dv int) (*Estimate, error) {
	if dv < 1 {
		return nil, fmt.Errorf("costmodel: vectorisation degree must be >= 1, got %d", dv)
	}
	mdl, l := cm.mdl, cm.low
	total := device.Resources{}
	for i := range l.funcs {
		lf := &l.funcs[i]
		var r device.Resources
		if lf.structural {
			r = cm.base[i]
		} else {
			// The oracle's estimateDatapath, with the walk pre-folded:
			// replicate the datapath dv times, widen the controllers
			// (integer division last), book the window bits and dv-way
			// tap muxes.
			r = cm.base[i].Scale(dv)
			ctrlUnits := 2 + (dv - 1)
			r.ALUTs += mdl.StreamCtrlALUTs * lf.ports * ctrlUnits / 2
			r.Regs += mdl.StreamCtrlRegs * lf.ports * ctrlUnits / 2
			r.Regs += lf.winRegs
			r.BRAM += lf.winBRAM
			r.ALUTs += mdl.BRAMWindowALUTs * lf.bramWindows * dv
			r.Regs += mdl.BRAMWindowRegs * lf.bramWindows * dv
		}
		total = total.Add(r.Scale(lf.n))
	}
	total.ALUTs += mdl.ShimALUTs
	total.Regs += mdl.ShimRegs

	return &Estimate{
		Module: l.m,
		Target: mdl.Target,
		Used:   total,
		KPD:    l.kpd,
		Noff:   l.noff,
		NI:     l.ni,
		Lanes:  l.lanes,
		DV:     dv,
		NTO:    1,
		FmaxHz: mdl.Target.FmaxHz,
		Config: l.cfg,
	}, nil
}
