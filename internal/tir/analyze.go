package tir

import "repro/internal/diag"

// Analyze runs Check plus the deeper static passes: conditions that
// previously surfaced only at simulation time inside pipesim.Compile
// (bad port wiring, unrooted or out-of-range offset windows) or
// degraded silently (non-mergeable par reductions forcing sequential
// lanes, aliased streams disabling batching, datapaths the simulator
// cannot execute). The deep passes assume a
// well-formed module, so they only run when Check reports no errors.
// They resolve names through Check's tables and allocate nothing per
// instruction or per call site.
func (m *Module) Analyze() diag.List {
	c := newChecker(m)
	c.check()
	if !c.l.HasErrors() {
		c.analyze()
	}
	c.l.Sort()
	return c.l
}

func (c *checker) analyze() {
	// Par-replicated kernels: the pipe children of par functions. Their
	// accumulators must merge across lanes for the replication to pay.
	replicated := make(map[string]bool, len(c.m.Funcs))
	for _, f := range c.m.Funcs {
		if f.Mode != ModePar {
			continue
		}
		for _, in := range f.Body {
			if call, ok := in.(*CallInstr); ok {
				replicated[call.Callee] = true
			}
		}
	}
	for _, f := range c.m.Funcs {
		switch f.Mode {
		case ModePipe:
			c.checkDatapathEval(f)
			if replicated[f.Name] {
				c.checkParReduction(f)
			}
		case ModeComb:
			c.checkDatapathEval(f)
		}
		for _, in := range f.Body {
			if call, ok := in.(*CallInstr); ok && call.Mode == ModePipe {
				c.checkPipeCallSite(f, call)
			}
		}
	}
}

// boundArg is what one argument of a pipe call site binds: the memory
// object behind its port's stream (nil when the argument does not
// resolve to one) and the port's direction.
type boundArg struct {
	mem *MemObject
	dir Direction
}

// streamRef resolves a chained offset to its root stream and the
// cumulative element offset.
type streamRef struct {
	root string
	off  int64
}

// checkPipeCallSite performs the static half of the simulator's bind():
// every argument of a pipe call must wire an existing top-level port of
// the parameter's type (TIR040), the site must bind at least one stream
// (TIR041), offsets in the callee must be rooted in an input stream of
// this site (TIR042) with a window that intersects the bound stream at
// least once (TIR043), and in/out streams sharing a memory object pin
// the program to item order (TIR046, warning).
func (c *checker) checkPipeCallSite(parent *Function, call *CallInstr) {
	callee := c.fns[call.Callee]
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
	if cap(c.bound) < len(call.Args) {
		c.bound = make([]boundArg, len(call.Args))
	}
	c.bound = c.bound[:len(call.Args)]
	clear(c.bound)
	wired := true
	for k, arg := range call.Args {
		param := callee.Params[k]
		if arg.Kind != OpGlobal {
			c.l.Errorf(CodePortWiring, call.At,
				"@%s: call @%s: argument %d must wire a top-level port, got %s",
				parent.Name, callee.Name, k, arg)
			wired = false
			continue
		}
		port := c.ports[arg.Name]
		if port == nil {
			c.l.Errorf(CodePortWiring, call.At,
				"@%s: call @%s: no port @%s", parent.Name, callee.Name, arg.Name)
			wired = false
			continue
		}
		if port.Elem != param.Ty {
			c.l.Errorf(CodePortWiring, call.At,
				"@%s: call @%s: port @%s type %s does not match parameter %%%s type %s",
				parent.Name, callee.Name, arg.Name, port.Elem, param.Name, param.Ty)
		}
		so := c.streams[port.Stream]
		if so == nil {
			continue // reported by Check (TIR019)
		}
		mo := c.mems[so.Mem]
		if mo == nil {
			continue // reported by Check (TIR017)
		}
		c.bound[k] = boundArg{mem: mo, dir: port.Dir}
		if items < 0 || mo.Size < items {
			items = mo.Size
		}
	}
	if items < 0 {
		if wired {
			c.l.Errorf(CodeNoStreams, call.At,
				"@%s: call @%s binds no streams", parent.Name, callee.Name)
		}
		return
	}
	for k, out := range c.bound {
		if out.mem == nil || out.dir != DirOut {
			continue
		}
		for j, in := range c.bound {
			if in.mem != nil && in.dir == DirIn && in.mem.Name == out.mem.Name {
				c.l.Warnf(CodeItemOrder, call.At,
					"@%s: call @%s: output %%%s and input %%%s share memory object %%%s: execution pinned to item order (no batching)",
					parent.Name, callee.Name, callee.Params[k].Name, callee.Params[j].Name, in.mem.Name)
			}
		}
	}

	// Offset windows, resolved through chains to their root stream as
	// the simulator's pre-pass does.
	if c.roots == nil {
		c.roots = make(map[string]streamRef, len(callee.Body))
	}
	clear(c.roots)
	for _, in := range callee.Body {
		o, ok := in.(*OffsetInstr)
		if !ok {
			continue
		}
		r := streamRef{root: o.Src.Name, off: o.Offset}
		if prev, chained := c.roots[o.Src.Name]; chained {
			r = streamRef{root: prev.root, off: prev.off + o.Offset}
		}
		mo := c.input(callee, r.root)
		if mo == nil {
			c.l.Errorf(CodeOffsetRoot, o.At,
				"@%s: offset %%%s is not rooted in an input stream of the call in @%s",
				callee.Name, o.Dst, parent.Name)
			continue
		}
		c.roots[o.Dst] = r
		// In-bounds work-item range of a load at offset off over a
		// stream of the bound size: [max(0,-off), min(items, size-off)).
		lo, hi := int64(0), items
		if -r.off > lo {
			lo = -r.off
		}
		if s := mo.Size - r.off; s < hi {
			hi = s
		}
		if hi <= lo {
			// Legal — the executor zero-fills out-of-bounds loads — but
			// a window that never sees data is almost certainly a sizing
			// mistake.
			c.l.Warnf(CodeOffsetBounds, o.At,
				"@%s: offset %%%s (cumulative %+d) never intersects stream %%%s of size %d: every load is zero-filled",
				callee.Name, o.Dst, r.off, mo.Name, mo.Size)
		}
	}
}

// input returns the memory object the current call site binds to the
// callee's input parameter name, or nil when name is no such parameter.
func (c *checker) input(callee *Function, name string) *MemObject {
	for k, p := range callee.Params {
		if p.Name == name && c.bound[k].dir == DirIn {
			return c.bound[k].mem
		}
	}
	return nil
}

// checkParReduction warns when a par-replicated kernel accumulates in a
// form whose per-lane partials cannot merge to the sequential result:
// each lane then needs the others' running value, so the replicated
// lanes must run one after another and the replication buys nothing.
func (c *checker) checkParReduction(f *Function) {
	for _, in := range f.Body {
		b, ok := in.(*BinInstr)
		if !ok || !b.GlobalDst {
			continue
		}
		if _, mergeable := AccIdentity(b.Op, b.Ty); !mergeable {
			c.l.Warnf(CodeAccIdentity, b.At,
				"@%s: par-reduced accumulator @%s: %s at %s has no merge identity, lanes will run sequentially",
				f.Name, b.Dst, b.Op, b.Ty)
			continue
		}
		selfA := b.A.Kind == OpGlobal && b.A.Name == b.Dst
		selfB := b.B.Kind == OpGlobal && b.B.Name == b.Dst
		if selfA == selfB {
			c.l.Warnf(CodeAccIdentity, b.At,
				"@%s: par-reduced accumulator @%s: write is not in op(self, value) form, lanes will run sequentially",
				f.Name, b.Dst)
		}
	}
}

// checkDatapathEval warns about instructions the pipeline simulator
// cannot evaluate (no integer evaluation closure at the type, e.g.
// float arithmetic): the design still validates and costs, but cycle
// simulation and DSE simulation-mode evaluation will reject it.
func (c *checker) checkDatapathEval(f *Function) {
	for _, in := range f.Body {
		switch it := in.(type) {
		case *BinInstr:
			if !integerOp(it.Op, 2) {
				c.l.Warnf(CodeDatapathEval, it.At,
					"@%s: %s at %s is not executable by the pipeline simulator",
					f.Name, it.Op, it.Ty)
			}
		case *UnInstr:
			if !integerOp(it.Op, 1) {
				c.l.Warnf(CodeDatapathEval, it.At,
					"@%s: %s at %s is not executable by the pipeline simulator",
					f.Name, it.Op, it.Ty)
			}
		case *CmpInstr:
			if !ValidCmpPred(it.Pred) {
				c.l.Warnf(CodeDatapathEval, it.At,
					"@%s: icmp %s at %s is not executable by the pipeline simulator",
					f.Name, it.Pred, it.Ty)
			}
		}
	}
}
