// Package pipesim is the execution substrate of the reproduction: a
// cycle-level simulator of the streaming datapath the TyTra back-end
// generates. It stands in for running the synthesised design on the FPGA
// board, producing the "actual" cycles-per-kernel-instance that Table II
// compares the cost model's estimates against — and, unlike a cycle
// formula, it also computes the kernel's numerical output so the
// generated architecture can be validated against the golden kernels.
//
// The simulated microarchitecture is the one of Fig 13: stream
// controllers prime offset windows, work-items enter the pipeline one
// per cycle per lane, balancing delay lines keep waves coherent (the
// simulator exploits that by evaluating one work-item's wave at a time),
// global accumulators commit at the end of the wave, and output streams
// are written back through the stream controller.
//
// Cycle accounting includes the second-order effects a per-IR estimate
// does not see: burst-aligned window priming, per-stream controller
// start-up, output handshake flush, and the accumulator drain at the end
// of the NDRange. These are what make actual CPKI differ from estimated
// CPKI by the small margins the paper reports.
//
// Two executors implement that model. Compile lowers each PE function
// once into a slot-indexed body that every call site binds to its own
// streams (compile.go), and a CompiledDesign streams work-items through
// a tight allocation-free loop (design.go); hold one to amortise the
// compilation across many instances. RunOracle is the retained
// wave-by-wave interpreter in this file — the reference the compiled
// path is differentially tested against, selectable suite-wide with the
// tests' -pipesim.oracle flag.
//
// Timing never depends on data: every cycle term is fixed when a PE
// compiles. So the compiled path has one cycle formula, summed once
// per design at compile time, and CompiledDesign.Timing returns it
// without executing anything; a run reports the same numbers alongside
// the outputs it computes. The oracle keeps its own derivation, and
// TestDifferentialTimingMatchesOracle pins the two together: a change
// that makes timing data-dependent must break that test first.
package pipesim

import (
	"fmt"

	"repro/internal/elab"
	"repro/internal/tir"
)

// Microarchitectural constants of the generated stream controllers.
const (
	// burstElems is the DMA burst granularity in elements: window priming
	// completes only at burst boundaries.
	burstElems = 16
	// ctrlStartup is the per-kernel-instance address-generator setup.
	ctrlStartup = 8
	// handshake is the egress registering/handshake depth beyond the
	// datapath's own pipeline stages.
	handshake = 3
)

// Result is the outcome of executing one kernel-instance.
type Result struct {
	// Mem maps every memory object (inputs, intermediates and outputs)
	// to its final contents.
	Mem map[string][]int64
	// Acc holds the final values of the global accumulators.
	Acc map[string]int64
	// Cycles is the actual cycles-per-kernel-instance (CPKI).
	Cycles int64
	// Items is the number of work-items executed across all lanes.
	Items int64
}

// pe is one processing-element invocation: a call site binding a pipe
// function's parameters to memory objects.
type pe struct {
	fn    *tir.Function
	depth int               // scheduled pipeline depth of fn
	in    map[string]string // param -> memobj (input streams)
	out   map[string]string // param -> memobj (output streams)
	items int64
	fill  int64 // priming + pipeline depth + handshake cycles
}

// sim carries module-wide execution state.
type sim struct {
	m   *tir.Module
	mem map[string][]int64
	acc map[string]int64
}

// RunOracle executes the design variant through the wave-by-wave
// interpreter: the original, map-based reference implementation. It is
// retained as the oracle the compiled executor (compile.go, design.go)
// is differentially tested against — CompiledDesign.Run must produce a
// bit-identical Result. Same contract as Instance.Run.
func RunOracle(m *tir.Module, mem map[string][]int64) (*Result, error) {
	d, err := elab.Elaborate(m)
	if err != nil {
		return nil, err
	}
	if err := d.CheckBound(); err != nil {
		return nil, err
	}
	s := &sim{m: m, mem: map[string][]int64{}, acc: map[string]int64{}}
	for name, data := range mem {
		mo := m.MemObject(name)
		if mo == nil {
			return nil, fmt.Errorf("pipesim: no memory object %q in module", name)
		}
		if int64(len(data)) != mo.Size {
			return nil, fmt.Errorf("pipesim: memory object %q: got %d elements, declared %d",
				name, len(data), mo.Size)
		}
		cp := make([]int64, len(data))
		copy(cp, data)
		s.mem[name] = cp
	}

	cycles, items, err := s.runNode(d.Root())
	if err != nil {
		return nil, err
	}
	return &Result{Mem: s.mem, Acc: s.acc, Cycles: cycles, Items: items}, nil
}

// runNode executes one instance of the architecture under a design
// node and returns its cycle cost and work-item count. Sequential nodes
// sum their children; parallel nodes take the slowest lane; a pipe node
// executes its own datapath and chains any coarse-grained pipe children
// (fills add, streaming overlaps).
func (s *sim) runNode(n *elab.Node) (cycles, items int64, err error) {
	switch n.Func.Mode {
	case tir.ModeSeq:
		total := int64(0)
		var all int64
		for _, c := range n.Calls {
			cy, it, err := s.runCall(c.Site, c.Callee)
			if err != nil {
				return 0, 0, err
			}
			total += cy
			all += it
		}
		return total, all, nil
	case tir.ModePar, tir.ModePipe, tir.ModeComb:
		// Reached only when main itself is the kernel; wrap as a call-less
		// invocation.
		return s.runCall(nil, n)
	}
	return 0, 0, fmt.Errorf("pipesim: unsupported root mode %s", n.Func.Mode)
}

// runCall executes the PE(s) reached through one call site.
func (s *sim) runCall(call *tir.CallInstr, n *elab.Node) (cycles, items int64, err error) {
	switch n.Func.Mode {
	case tir.ModePar:
		// Lanes run concurrently: the kernel-instance finishes when the
		// slowest lane drains.
		var worst, all int64
		for _, c := range n.Calls {
			cy, it, err := s.runCall(c.Site, c.Callee)
			if err != nil {
				return 0, 0, err
			}
			if cy > worst {
				worst = cy
			}
			all += it
		}
		return worst + ctrlStartup, all, nil

	case tir.ModePipe:
		if call == nil {
			return 0, 0, fmt.Errorf("pipesim: pipe function @%s must be invoked through a call site", n.Func.Name)
		}
		var total int64
		if len(n.Func.Params) > 0 {
			// The parent is itself a PE.
			p, err := s.bind(call, n.Func)
			if err != nil {
				return 0, 0, err
			}
			p.depth = n.Sched.Depth
			if err := s.execute(p); err != nil {
				return 0, 0, err
			}
			total = p.fill + p.items + ctrlStartup
			items = p.items
		} else {
			// A purely structural coarse-pipeline parent (Fig 7
			// configuration 3: pipe { pipeA(); pipeB() }): only its
			// children move data.
			if len(n.Calls) == 0 {
				return 0, 0, fmt.Errorf("pipesim: pipe function @%s has neither streams nor stages", n.Func.Name)
			}
			total = ctrlStartup
		}
		// Coarse-grained pipeline children: peers streaming through
		// shared memory objects. Their fills add; the portion of the
		// item stream already flowing through the chain overlaps.
		for _, c := range n.Calls {
			if c.Callee.Func.Mode == tir.ModeComb {
				continue // inlined in the parent wave, not a peer PE
			}
			cy, it, err := s.runCall(c.Site, c.Callee)
			if err != nil {
				return 0, 0, err
			}
			overlap := it
			if overlap > items {
				overlap = items
			}
			if overlap > cy {
				overlap = cy
			}
			total += cy - overlap
			if it > items {
				items = it
			}
		}
		return total, items, nil

	case tir.ModeComb:
		return 0, 0, fmt.Errorf("pipesim: comb function @%s cannot be a processing element; inline it in a pipe", n.Func.Name)
	}
	return 0, 0, fmt.Errorf("pipesim: unsupported call mode %s", n.Func.Mode)
}

// bind resolves a pipe call's arguments to memory objects and sizes the
// invocation.
func (s *sim) bind(call *tir.CallInstr, fn *tir.Function) (*pe, error) {
	p := &pe{fn: fn, in: map[string]string{}, out: map[string]string{}}
	items := int64(-1)
	for k, a := range call.Args {
		param := fn.Params[k]
		if a.Kind != tir.OpGlobal {
			return nil, fmt.Errorf("pipesim: call @%s: argument %d must wire a top-level port, got %s",
				fn.Name, k, a)
		}
		port := s.m.Port(a.Name)
		if port == nil {
			return nil, fmt.Errorf("pipesim: call @%s: no port @%s", fn.Name, a.Name)
		}
		if port.Elem != param.Ty {
			return nil, fmt.Errorf("pipesim: call @%s: port @%s type %s does not match parameter %%%s type %s",
				fn.Name, a.Name, port.Elem, param.Name, param.Ty)
		}
		so := s.m.Stream(port.Stream)
		if so == nil {
			return nil, fmt.Errorf("pipesim: port @%s has no stream object", a.Name)
		}
		mo := s.m.MemObject(so.Mem)
		if mo == nil {
			return nil, fmt.Errorf("pipesim: stream %%%s has no memory object", so.Name)
		}
		switch port.Dir {
		case tir.DirIn:
			if _, ok := s.mem[mo.Name]; !ok {
				return nil, fmt.Errorf("pipesim: input memory object %%%s has no contents (missing input or producer)", mo.Name)
			}
			p.in[param.Name] = mo.Name
		case tir.DirOut:
			if _, ok := s.mem[mo.Name]; ok {
				return nil, fmt.Errorf("pipesim: memory object %%%s written twice", mo.Name)
			}
			s.mem[mo.Name] = make([]int64, mo.Size)
			p.out[param.Name] = mo.Name
		}
		if items < 0 || mo.Size < items {
			items = mo.Size
		}
	}
	if items < 0 {
		return nil, fmt.Errorf("pipesim: call @%s binds no streams", fn.Name)
	}
	p.items = items
	return p, nil
}

// execute runs every work-item of one PE invocation and accounts its
// fill cycles.
func (s *sim) execute(p *pe) error {
	fn := p.fn

	// Offset resolution: dst -> (root input param, cumulative offset).
	roots := map[string]streamRef{}
	var maxAhead int64
	for _, in := range fn.Body {
		o, ok := in.(*tir.OffsetInstr)
		if !ok {
			continue
		}
		r := streamRef{root: o.Src.Name, off: o.Offset}
		if prev, chained := roots[o.Src.Name]; chained {
			r = streamRef{root: prev.root, off: prev.off + o.Offset}
		}
		if _, isIn := p.in[r.root]; !isIn {
			return fmt.Errorf("pipesim: @%s: offset %%%s is not rooted in an input stream", fn.Name, o.Dst)
		}
		roots[o.Dst] = r
		if r.off > maxAhead {
			maxAhead = r.off
		}
	}

	// Wave-by-wave execution.
	env := make(map[string]int64, len(fn.Body)+len(fn.Params))
	var drain int64
	for i := int64(0); i < p.items; i++ {
		clear(env)
		for param, memName := range p.in {
			env[param] = s.mem[memName][i]
		}
		d, err := s.wave(fn, p, roots, env, i)
		if err != nil {
			return err
		}
		if d > drain {
			drain = d
		}
	}

	// Priming completes at a DMA burst boundary.
	primed := maxAhead
	if rem := primed % burstElems; rem != 0 || primed == 0 {
		primed += burstElems - rem
	}
	p.fill = primed + int64(p.depth) + handshake + drain
	return nil
}

// wave evaluates one work-item through the function body (including
// inlined comb blocks), returning the accumulator drain latency of the
// wave.
func (s *sim) wave(fn *tir.Function, p *pe, roots map[string]streamRef, env map[string]int64, i int64) (int64, error) {
	var drain int64
	read := func(o tir.Operand, ty tir.Type) (int64, error) {
		switch o.Kind {
		case tir.OpImm:
			return o.Imm, nil
		case tir.OpGlobal:
			return s.acc[o.Name], nil
		default:
			v, ok := env[o.Name]
			if !ok {
				return 0, fmt.Errorf("pipesim: @%s: value %%%s not available", fn.Name, o.Name)
			}
			return v, nil
		}
	}
	for _, in := range fn.Body {
		switch it := in.(type) {
		case *tir.OffsetInstr:
			r := roots[it.Dst]
			src := s.mem[p.in[r.root]]
			j := i + r.off
			var v int64
			if j >= 0 && j < int64(len(src)) {
				v = src[j]
			}
			env[it.Dst] = v
		case *tir.ConstInstr:
			env[it.Dst] = it.Ty.Wrap(it.Val)
		case *tir.BinInstr:
			a, err := read(it.A, it.Ty)
			if err != nil {
				return 0, err
			}
			b, err := read(it.B, it.Ty)
			if err != nil {
				return 0, err
			}
			v, err := tir.EvalBin(it.Op, it.Ty, a, b)
			if err != nil {
				return 0, fmt.Errorf("pipesim: @%s: %w", fn.Name, err)
			}
			if it.GlobalDst {
				s.acc[it.Dst] = v
				if l := int64(it.Op.Latency(it.Ty.Bits)); l > drain {
					drain = l
				}
			} else {
				env[it.Dst] = v
			}
		case *tir.UnInstr:
			a, err := read(it.A, it.Ty)
			if err != nil {
				return 0, err
			}
			v, err := tir.EvalUn(it.Op, it.Ty, a)
			if err != nil {
				return 0, fmt.Errorf("pipesim: @%s: %w", fn.Name, err)
			}
			env[it.Dst] = v
		case *tir.CmpInstr:
			a, err := read(it.A, it.Ty)
			if err != nil {
				return 0, err
			}
			b, err := read(it.B, it.Ty)
			if err != nil {
				return 0, err
			}
			v, err := tir.EvalCmp(it.Pred, it.Ty, a, b)
			if err != nil {
				return 0, fmt.Errorf("pipesim: @%s: %w", fn.Name, err)
			}
			env[it.Dst] = v
		case *tir.SelectInstr:
			c, err := read(it.Cond, tir.UIntT(1))
			if err != nil {
				return 0, err
			}
			a, err := read(it.A, it.Ty)
			if err != nil {
				return 0, err
			}
			b, err := read(it.B, it.Ty)
			if err != nil {
				return 0, err
			}
			if c != 0 {
				env[it.Dst] = a
			} else {
				env[it.Dst] = b
			}
		case *tir.OutInstr:
			v, err := read(it.Val, it.Ty)
			if err != nil {
				return 0, err
			}
			memName, ok := p.out[it.Port]
			if !ok {
				return 0, fmt.Errorf("pipesim: @%s: out to %%%s which is not an output stream", fn.Name, it.Port)
			}
			s.mem[memName][i] = it.Ty.Wrap(v)
		case *tir.CallInstr:
			if it.Mode == tir.ModePipe {
				continue // peer PE, simulated separately
			}
			if it.Mode != tir.ModeComb {
				return 0, fmt.Errorf("pipesim: @%s: cannot execute %s call inside a datapath", fn.Name, it.Mode)
			}
			if err := s.inlineComb(fn, it, env, read); err != nil {
				return 0, err
			}
		default:
			return 0, fmt.Errorf("pipesim: @%s: unknown instruction %T", fn.Name, in)
		}
	}
	return drain, nil
}

// inlineComb evaluates a comb child as a single-cycle block: in-args are
// read from the parent environment, the child body runs, and the child's
// out-bound parameters define the corresponding parent wires.
func (s *sim) inlineComb(parent *tir.Function, call *tir.CallInstr, env map[string]int64,
	read func(tir.Operand, tir.Type) (int64, error)) error {
	callee := s.m.Func(call.Callee)
	if callee == nil {
		return fmt.Errorf("pipesim: @%s: unknown comb callee @%s", parent.Name, call.Callee)
	}
	outs := callee.OutParams()
	cenv := make(map[string]int64, len(callee.Params)+len(callee.Body))
	for k, a := range call.Args {
		param := callee.Params[k]
		if outs[param.Name] {
			continue
		}
		v, err := read(a, param.Ty)
		if err != nil {
			return err
		}
		cenv[param.Name] = v
	}
	cread := func(o tir.Operand, ty tir.Type) (int64, error) {
		switch o.Kind {
		case tir.OpImm:
			return o.Imm, nil
		case tir.OpGlobal:
			return s.acc[o.Name], nil
		default:
			v, ok := cenv[o.Name]
			if !ok {
				return 0, fmt.Errorf("pipesim: @%s: value %%%s not available", callee.Name, o.Name)
			}
			return v, nil
		}
	}
	couts := map[string]int64{}
	for _, in := range callee.Body {
		switch it := in.(type) {
		case *tir.ConstInstr:
			cenv[it.Dst] = it.Ty.Wrap(it.Val)
		case *tir.BinInstr:
			a, err := cread(it.A, it.Ty)
			if err != nil {
				return err
			}
			b, err := cread(it.B, it.Ty)
			if err != nil {
				return err
			}
			v, err := tir.EvalBin(it.Op, it.Ty, a, b)
			if err != nil {
				return fmt.Errorf("pipesim: @%s: %w", callee.Name, err)
			}
			if it.GlobalDst {
				s.acc[it.Dst] = v
			} else {
				cenv[it.Dst] = v
			}
		case *tir.UnInstr:
			a, err := cread(it.A, it.Ty)
			if err != nil {
				return err
			}
			v, err := tir.EvalUn(it.Op, it.Ty, a)
			if err != nil {
				return fmt.Errorf("pipesim: @%s: %w", callee.Name, err)
			}
			cenv[it.Dst] = v
		case *tir.CmpInstr:
			a, err := cread(it.A, it.Ty)
			if err != nil {
				return err
			}
			b, err := cread(it.B, it.Ty)
			if err != nil {
				return err
			}
			v, err := tir.EvalCmp(it.Pred, it.Ty, a, b)
			if err != nil {
				return fmt.Errorf("pipesim: @%s: %w", callee.Name, err)
			}
			cenv[it.Dst] = v
		case *tir.SelectInstr:
			c, err := cread(it.Cond, tir.UIntT(1))
			if err != nil {
				return err
			}
			a, err := cread(it.A, it.Ty)
			if err != nil {
				return err
			}
			b, err := cread(it.B, it.Ty)
			if err != nil {
				return err
			}
			if c != 0 {
				cenv[it.Dst] = a
			} else {
				cenv[it.Dst] = b
			}
		case *tir.OutInstr:
			v, err := cread(it.Val, it.Ty)
			if err != nil {
				return err
			}
			couts[it.Port] = it.Ty.Wrap(v)
		default:
			return fmt.Errorf("pipesim: @%s: instruction %T not allowed in a comb block", callee.Name, in)
		}
	}
	for k, a := range call.Args {
		param := callee.Params[k]
		if !outs[param.Name] {
			continue
		}
		if a.Kind == tir.OpReg {
			env[a.Name] = couts[param.Name]
		}
	}
	return nil
}

// streamRef resolves a chained offset to its root input stream and the
// cumulative element offset.
type streamRef struct {
	root string
	off  int64
}
