package tir

import "repro/internal/diag"

// Analyze runs Check plus the deeper static passes: conditions that
// previously surfaced only at simulation time inside pipesim.Compile
// (bad port wiring, unrooted or out-of-range offset windows) or
// degraded silently (non-mergeable par reductions forcing sequential
// lanes, aliased streams disabling batching, datapaths the simulator
// cannot execute). The deep passes assume a
// well-formed module, so they only run when Check reports no errors.
func (m *Module) Analyze() diag.List {
	l := m.Check()
	if l.HasErrors() {
		return l
	}
	a := &analysis{m: m, l: &l}
	a.run()
	l.Sort()
	return l
}

// analysis carries one Analyze run.
type analysis struct {
	m *Module
	l *diag.List
}

func (a *analysis) run() {
	// Par-replicated kernels: the pipe children of par functions. Their
	// accumulators must merge across lanes for the replication to pay.
	parLanes := map[string]bool{}
	for _, f := range a.m.Funcs {
		if f.Mode == ModePar {
			for _, c := range f.Calls() {
				parLanes[c.Callee] = true
			}
		}
	}
	for _, f := range a.m.Funcs {
		switch f.Mode {
		case ModePipe:
			a.checkDatapathEval(f)
			if parLanes[f.Name] {
				a.checkParReduction(f)
			}
		case ModeComb:
			a.checkDatapathEval(f)
		}
		for _, in := range f.Body {
			if c, ok := in.(*CallInstr); ok && c.Mode == ModePipe {
				a.checkPipeCallSite(f, c)
			}
		}
	}
}

// checkPipeCallSite performs the static half of the simulator's bind():
// every argument of a pipe call must wire an existing top-level port of
// the parameter's type (TIR040), the site must bind at least one stream
// (TIR041), offsets in the callee must be rooted in an input stream of
// this site (TIR042) with a window that intersects the bound stream at
// least once (TIR043), and in/out streams sharing a memory object pin
// the program to item order (TIR046, warning).
func (a *analysis) checkPipeCallSite(parent *Function, call *CallInstr) {
	callee := a.m.Func(call.Callee)
	if callee == nil || len(call.Args) != len(callee.Params) {
		return // reported by Check
	}
	if len(callee.Params) == 0 {
		// A parameter-less pipe callee is a container stage (coarse
		// pipeline): its own body wires the ports.
		return
	}
	// items is the invocation's work-item count: the smallest bound
	// stream, as in the simulator.
	items := int64(-1)
	inSize := map[string]int64{} // input param -> bound memobj size
	inMems := map[string]string{}
	outMems := map[string]string{}
	wired := true
	for k, arg := range call.Args {
		param := callee.Params[k]
		if arg.Kind != OpGlobal {
			a.l.Errorf(CodePortWiring, call.At,
				"@%s: call @%s: argument %d must wire a top-level port, got %s",
				parent.Name, callee.Name, k, arg)
			wired = false
			continue
		}
		port := a.m.Port(arg.Name)
		if port == nil {
			a.l.Errorf(CodePortWiring, call.At,
				"@%s: call @%s: no port @%s", parent.Name, callee.Name, arg.Name)
			wired = false
			continue
		}
		if port.Elem != param.Ty {
			a.l.Errorf(CodePortWiring, call.At,
				"@%s: call @%s: port @%s type %s does not match parameter %%%s type %s",
				parent.Name, callee.Name, arg.Name, port.Elem, param.Name, param.Ty)
		}
		so := a.m.Stream(port.Stream)
		if so == nil {
			continue // reported by Check (TIR019)
		}
		mo := a.m.MemObject(so.Mem)
		if mo == nil {
			continue // reported by Check (TIR017)
		}
		switch port.Dir {
		case DirIn:
			inSize[param.Name] = mo.Size
			inMems[param.Name] = mo.Name
		case DirOut:
			outMems[param.Name] = mo.Name
		}
		if items < 0 || mo.Size < items {
			items = mo.Size
		}
	}
	if items < 0 {
		if wired {
			a.l.Errorf(CodeNoStreams, call.At,
				"@%s: call @%s binds no streams", parent.Name, callee.Name)
		}
		return
	}
	for op, om := range outMems {
		for ip, im := range inMems {
			if im == om {
				a.l.Warnf(CodeItemOrder, call.At,
					"@%s: call @%s: output %%%s and input %%%s share memory object %%%s: execution pinned to item order (no batching)",
					parent.Name, callee.Name, op, ip, im)
			}
		}
	}

	// Offset windows, resolved through chains to their root stream as
	// the simulator's pre-pass does.
	type streamRef struct {
		root string
		off  int64
	}
	roots := map[string]streamRef{}
	for _, in := range callee.Body {
		o, ok := in.(*OffsetInstr)
		if !ok {
			continue
		}
		r := streamRef{root: o.Src.Name, off: o.Offset}
		if prev, chained := roots[o.Src.Name]; chained {
			r = streamRef{root: prev.root, off: prev.off + o.Offset}
		}
		size, isIn := inSize[r.root]
		if !isIn {
			a.l.Errorf(CodeOffsetRoot, o.At,
				"@%s: offset %%%s is not rooted in an input stream of the call in @%s",
				callee.Name, o.Dst, parent.Name)
			continue
		}
		roots[o.Dst] = r
		// In-bounds work-item range of a load at offset off over a
		// stream of the bound size: [max(0,-off), min(items, size-off)).
		lo, hi := int64(0), items
		if -r.off > lo {
			lo = -r.off
		}
		if s := size - r.off; s < hi {
			hi = s
		}
		if hi <= lo {
			// Legal — the executor zero-fills out-of-bounds loads — but
			// a window that never sees data is almost certainly a sizing
			// mistake.
			a.l.Warnf(CodeOffsetBounds, o.At,
				"@%s: offset %%%s (cumulative %+d) never intersects stream %%%s of size %d: every load is zero-filled",
				callee.Name, o.Dst, r.off, inMems[r.root], size)
		}
	}
}

// checkParReduction warns when a par-replicated kernel accumulates in a
// form whose per-lane partials cannot merge to the sequential result:
// each lane then needs the others' running value, so the replicated
// lanes must run one after another and the replication buys nothing.
func (a *analysis) checkParReduction(f *Function) {
	for _, in := range f.Body {
		b, ok := in.(*BinInstr)
		if !ok || !b.GlobalDst {
			continue
		}
		if _, mergeable := AccIdentity(b.Op, b.Ty); !mergeable {
			a.l.Warnf(CodeAccIdentity, b.At,
				"@%s: par-reduced accumulator @%s: %s at %s has no merge identity, lanes will run sequentially",
				f.Name, b.Dst, b.Op, b.Ty)
			continue
		}
		selfA := b.A.Kind == OpGlobal && b.A.Name == b.Dst
		selfB := b.B.Kind == OpGlobal && b.B.Name == b.Dst
		if selfA == selfB {
			a.l.Warnf(CodeAccIdentity, b.At,
				"@%s: par-reduced accumulator @%s: write is not in op(self, value) form, lanes will run sequentially",
				f.Name, b.Dst)
		}
	}
}

// checkDatapathEval warns about instructions the pipeline simulator
// cannot evaluate (no integer evaluation closure at the type, e.g.
// float arithmetic): the design still validates and costs, but cycle
// simulation and DSE simulation-mode evaluation will reject it.
func (a *analysis) checkDatapathEval(f *Function) {
	for _, in := range f.Body {
		switch it := in.(type) {
		case *BinInstr:
			if _, ok := BinEval(it.Op, it.Ty); !ok {
				a.l.Warnf(CodeDatapathEval, it.At,
					"@%s: %s at %s is not executable by the pipeline simulator",
					f.Name, it.Op, it.Ty)
			}
		case *UnInstr:
			if _, ok := UnEval(it.Op, it.Ty); !ok {
				a.l.Warnf(CodeDatapathEval, it.At,
					"@%s: %s at %s is not executable by the pipeline simulator",
					f.Name, it.Op, it.Ty)
			}
		case *CmpInstr:
			if _, ok := CmpEval(it.Pred, it.Ty); !ok {
				a.l.Warnf(CodeDatapathEval, it.At,
					"@%s: icmp %s at %s is not executable by the pipeline simulator",
					f.Name, it.Pred, it.Ty)
			}
		}
	}
}
