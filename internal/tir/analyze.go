package tir

import "repro/internal/diag"

// Analyze is the one verdict on a module, reached through
// elab.Elaborate: every back end trusts what it accepts. Unlike a
// fail-fast validator it collects every finding, each tagged with a
// stable TIR0xx code and the source position of the offending
// declaration, so a single run of tytravet reports the whole state of a
// design.
//
// Its first pass is the front stage's semantic checks (check). The deep
// passes then judge conditions that previously surfaced only at
// simulation time inside pipesim (bad port wiring, unrooted or
// out-of-range offset windows, call structures the pipeline cannot
// execute, comb blocks that read their own results) or degraded
// silently (non-mergeable par reductions forcing sequential lanes,
// aliased streams disabling batching, datapaths the simulator cannot
// execute). The deep passes assume a well-formed module, so they only
// run when the first pass reports no errors. Both resolve names through
// tables sized from the module once and allocate nothing per
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
	if main := c.fns["main"]; main.Mode != ModeSeq && main.Mode != ModePar {
		c.l.Errorf(CodeExecStructure, main.At,
			"@main: a design's root must be seq or par, not %s", main.Mode)
	}
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
			c.checkCombReads(f)
		}
		calls := 0
		for _, in := range f.Body {
			call, ok := in.(*CallInstr)
			if !ok {
				continue
			}
			calls++
			c.checkChildMode(f, call)
			if call.Mode == ModePipe {
				c.checkPipeCallSite(f, call)
			}
		}
		if f.Mode == ModePipe && len(f.Params) == 0 && calls == 0 {
			c.l.Errorf(CodeExecStructure, f.At, "@%s: pipe function has neither streams nor stages", f.Name)
		}
	}
}

// checkChildMode reports a call the parent's execution has no place for
// (TIR047): a seq function runs its pipe and par children in turn, and
// a pipe function chains pipe stages and inlines comb blocks. Par
// children are pipe kernels (TIR033) and comb blocks call nothing
// (TIR034). The first pass has matched every call's mode to its callee
// (TIR027).
func (c *checker) checkChildMode(parent *Function, call *CallInstr) {
	switch {
	case parent.Mode == ModeSeq && (call.Mode == ModeSeq || call.Mode == ModeComb):
		c.l.Errorf(CodeExecStructure, call.At,
			"@%s: call @%s: a seq function runs pipe and par kernels, not %s functions",
			parent.Name, call.Callee, call.Mode)
	case parent.Mode == ModePipe && (call.Mode == ModeSeq || call.Mode == ModePar):
		c.l.Errorf(CodeExecStructure, call.At,
			"@%s: call @%s: a pipe function chains pipe stages and inlines comb blocks, not %s functions",
			parent.Name, call.Callee, call.Mode)
	}
}

// checkCombReads reports a comb block that reads a parameter it drives
// (TIR048): a driven parameter is the block's result wire, which holds
// no value inside the block.
func (c *checker) checkCombReads(f *Function) {
	for _, p := range f.Params {
		if !f.drives(p.Name) {
			continue
		}
		if in := f.reader(p.Name); in != nil {
			c.l.Errorf(CodeCombReadsOut, in.Pos(),
				"@%s: reads %%%s, a parameter the comb block drives", f.Name, p.Name)
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
// the parameter's type, in the direction the callee uses the parameter
// (TIR040), the site must bind at least one stream
// (TIR041), offsets in the callee must be rooted in an input stream of
// this site (TIR042) with a window that intersects the bound stream at
// least once (TIR043), and in/out streams sharing a memory object pin
// the program to item order (TIR046, warning).
func (c *checker) checkPipeCallSite(parent *Function, call *CallInstr) {
	callee := c.fns[call.Callee]
	if callee == nil || len(call.Args) != len(callee.Params) {
		return // reported by the first pass
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
			continue // reported by the first pass (TIR019)
		}
		mo := c.mems[so.Mem]
		if mo == nil {
			continue // reported by the first pass (TIR017)
		}
		c.bound[k] = boundArg{mem: mo, dir: port.Dir}
		if items < 0 || mo.Size < items {
			items = mo.Size
		}
	}
	// The wiring must agree with how the callee uses each parameter: it
	// drives only those wired to output ports and reads only those wired
	// to input ports.
	for k, b := range c.bound {
		if b.mem == nil {
			continue
		}
		name := callee.Params[k].Name
		switch {
		case b.dir == DirIn && callee.drives(name):
			c.l.Errorf(CodePortWiring, call.At,
				"@%s: call @%s: out to parameter %%%s, which is wired to input port @%s",
				parent.Name, callee.Name, name, call.Args[k].Name)
		case b.dir == DirOut && callee.reader(name) != nil:
			c.l.Errorf(CodePortWiring, call.At,
				"@%s: call @%s: parameter %%%s is read, but is wired to output port @%s",
				parent.Name, callee.Name, name, call.Args[k].Name)
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
// float arithmetic): the design still elaborates and costs, but cycle
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
