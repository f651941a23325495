package costmodel

import (
	"errors"
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
// anything; this is the fast path the whole TyTra flow depends on. It
// is Bind(Lower(d)) evaluated at dv = 1, the program the DSE prices
// every variant through.
func (mdl *Model) Estimate(d *elab.Design) (*Estimate, error) {
	l, err := Lower(d)
	if err != nil {
		return nil, err
	}
	return mdl.Bind(l).EstimateVectorised(1)
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
