package costmodel

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/elab"
	"repro/internal/schedule"
	"repro/internal/tir"
)

// Estimate is the cost model's view of one design variant: the
// "resource estimates" output of Fig 2 plus the structural parameters of
// Table I that are read off the IR (NI, KPD, Noff, KNL).
type Estimate struct {
	Module *tir.Module
	Target *device.Target
	Used   device.Resources

	// KPD is the kernel pipeline depth: cycles from a work-item entering
	// the lane to its results committing (Table I).
	KPD int
	// Noff is the largest stream look-ahead: elements that must arrive
	// before the first work-item can issue (Table I).
	Noff int64
	// NI is the number of datapath instructions in one processing
	// element (Table I).
	NI int
	// Lanes is KNL, the number of parallel kernel lanes.
	Lanes int
	// DV is the degree of vectorisation per lane (Fig 5's C3 axis): the
	// number of work-items each lane consumes per cycle. 1 for plain
	// pipelines.
	DV int
	// NTO is cycles per instruction slot; 1 for fully pipelined lanes.
	NTO int
	// FmaxHz is FD, the operating frequency assumed for the variant.
	FmaxHz float64
	// Config is the Fig 7 classification of the variant.
	Config tir.Config
}

// Utilisation returns the fraction of each device resource the design
// consumes (the Fig 15 vertical bars).
func (e *Estimate) Utilisation() (aluts, regs, bram, dsps float64) {
	return e.Used.Utilisation(e.Target.Capacity)
}

// Fits reports whether the variant fits the device at all — the validity
// check the paper applies before comparing variants on throughput.
func (e *Estimate) Fits() bool { return e.Used.FitsIn(e.Target.Capacity) }

// cpkiBurstElems is the stream-controller DMA burst granularity the
// model assumes when rounding up the priming phase; cpkiSetup is the
// per-instance address-generator setup. Both are calibration constants
// measured once from the generated controllers.
const (
	cpkiBurstElems = 16
	cpkiSetup      = 8
)

// CPKI returns the estimated cycles-per-kernel-instance for a global size
// (work-items in the NDRange): burst-aligned offset priming, pipeline
// fill, controller setup, then one work-item per cycle per lane (NTO=1).
// The model does not see the egress handshake or the accumulator drain,
// which is where the residual error against the simulated design comes
// from (Table II's CPKI rows).
func (e *Estimate) CPKI(globalSize int64) int64 {
	lanes := int64(e.Lanes)
	if lanes < 1 {
		lanes = 1
	}
	if e.DV > 1 {
		lanes *= int64(e.DV)
	}
	perLane := (globalSize + lanes - 1) / lanes
	primed := e.Noff
	if rem := primed % cpkiBurstElems; rem != 0 || primed == 0 {
		primed += cpkiBurstElems - rem
	}
	return primed + int64(e.KPD) + cpkiSetup + perLane*int64(e.NTO)
}

// WorkingSetBits returns the on-chip storage the kernel-instance's
// NDRange would need if staged entirely in block RAM: the sum of all
// stream memory objects, in bits.
func (e *Estimate) WorkingSetBits() int64 {
	var bits int64
	for _, mo := range e.Module.MemObjects {
		bits += mo.Bytes() * 8
	}
	return bits
}

// FormCFeasible reports whether the form-C memory-execution scenario is
// actually available to this variant: the paper defines form C as "the
// data needed for the NDRange is small enough to fit inside the
// local-memory, i.e. the on-chip block-RAMs" (§III-5). The design's own
// BRAM (offset windows) must fit alongside the staged working set.
func (e *Estimate) FormCFeasible() bool {
	return e.WorkingSetBits()+int64(e.Used.BRAM) <= int64(e.Target.Capacity.BRAM)
}

// Estimate costs an elaborated design variant: per-instruction fitted
// expressions accumulated over the function hierarchy plus the
// structural blocks (stream controllers, offset windows, lane arbiters)
// implied by the function types (§V-A). It does not synthesise
// anything; this is the fast path the whole TyTra flow depends on.
func (mdl *Model) Estimate(d *elab.Design) (*Estimate, error) {
	return mdl.EstimateVectorised(d, 1)
}

// EstimateVectorised costs the design with each lane vectorised to dv
// work-items per cycle — the C3/C5 axis of the Fig 5 design space. The
// vectorised lane model: the datapath and its balancing delay lines
// replicate dv times; the stream controller widens rather than
// replicates (one address generator fetching dv-element words, costed at
// half a controller per extra way); offset windows keep their total
// bits (same elements buffered) but pay dv-way tap multiplexers.
//
// This is the per-instruction oracle the compiled program (Lower,
// Bind) is pinned to: each reachable function is priced once, in
// m.Funcs order, and scaled by its instance multiplicity.
func (mdl *Model) EstimateVectorised(d *elab.Design, dv int) (*Estimate, error) {
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

// dpShape is the lane shape of Table I read off the IR: pipeline
// depth, datapath instruction count and largest stream look-ahead.
type dpShape struct {
	depth, ni int
	noff      int64
}

// errShapeOverflow is the error of a lane whose KPD or NI overflows.
var errShapeOverflow = errors.New("costmodel: the lane's pipeline depth or instruction count overflows int")

// laneShape computes the shape of one lane of the design, memoised per
// function over the call DAG in post-order: a pipe or comb function
// adds its own schedule depth and datapath instructions to its
// children's and takes the worst look-ahead (pipe peers chain their
// depths); a par function is one replica of its lane; a seq function
// takes its deepest child and sums their instructions. The depth
// includes the fixed two cycles of ingress/egress stream-control
// registering. A sum that overflows is an error.
func laneShape(d *elab.Design) (dpShape, error) {
	nodes := d.Nodes()
	memo := make(map[*elab.Node]dpShape, len(nodes))
	ok := true
	for i := range nodes {
		n := &nodes[i]
		var s dpShape
		switch n.Func.Mode {
		case tir.ModePar:
			s = memo[n.Calls[0].Callee]
		case tir.ModePipe, tir.ModeComb:
			s = dpShape{depth: n.Sched.Depth, noff: schedule.MaxOffset(n.Func)}
			for _, in := range n.Func.Body {
				if _, call := in.(*tir.CallInstr); !call {
					s.ni++
				}
			}
			for _, c := range n.Calls {
				cs := memo[c.Callee]
				s.depth, ok = sumInts(s.depth, cs.depth, ok)
				s.ni, ok = sumInts(s.ni, cs.ni, ok)
				s.noff = max(s.noff, cs.noff)
			}
		case tir.ModeSeq:
			for _, c := range n.Calls {
				cs := memo[c.Callee]
				s.depth = max(s.depth, cs.depth)
				s.ni, ok = sumInts(s.ni, cs.ni, ok)
				s.noff = max(s.noff, cs.noff)
			}
		}
		memo[n] = s
	}
	s := memo[d.Root()]
	if s.depth, ok = sumInts(s.depth, 2, ok); !ok {
		return dpShape{}, errShapeOverflow
	}
	return s, nil
}

// sumInts adds two non-negative counts, clearing ok when the sum
// overflows an int (ok stays false once cleared).
func sumInts(a, b int, ok bool) (int, bool) {
	if a > math.MaxInt-b {
		return 0, false
	}
	return a + b, ok
}

// estimateDatapath costs one pipe/comb function: fitted per-instruction
// expressions, schedule-derived balancing registers, stream controllers
// and offset windows.
func (mdl *Model) estimateDatapath(n *elab.Node, dv int) device.Resources {
	f := n.Func
	r := device.Resources{}
	for _, in := range f.Body {
		if _, call := in.(*tir.CallInstr); !call {
			r = r.Add(mdl.InstrCost(in))
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

// InstrCost is the fitted per-instruction estimate — one row of the
// "similar or simpler expressions" the paper accumulates (§V-A).
func (mdl *Model) InstrCost(in tir.Instr) device.Resources {
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

// binConstOperand reports whether exactly one operand is an immediate.
func binConstOperand(it *tir.BinInstr) (int64, bool) {
	if it.A.Kind == tir.OpImm && it.B.Kind != tir.OpImm {
		return it.A.Imm, true
	}
	if it.B.Kind == tir.OpImm && it.A.Kind != tir.OpImm {
		return it.B.Imm, true
	}
	return 0, false
}

// ConstMulALUTs is the model's expression for multiplication by a
// constant: one adder per non-zero canonical-signed-digit beyond the
// first. Both the synthesis mapper and the model recode constants the
// same canonical way, so this expression is exact by construction.
func ConstMulALUTs(w int, k int64) int {
	n := CSDDigits(k)
	if n <= 1 {
		return 0
	}
	return (n - 1) * w
}

// CSDDigits counts the non-zero digits of the canonical signed-digit
// recoding of k: the number of partial terms of a shift-add multiplier.
func CSDDigits(k int64) int {
	if k < 0 {
		k = -k
	}
	u := uint64(k)
	count := 0
	for u != 0 {
		if u&1 != 0 {
			count++
			if u&2 != 0 {
				u++
			} else {
				u--
			}
		}
		u >>= 1
	}
	return count
}
