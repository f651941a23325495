package pipesim

import (
	"fmt"

	"repro/internal/tir"
)

// This file is the compile-once half of the simulator: it lowers one
// PE's datapath (comb children flattened inline) into a dense []op
// program whose operands are pre-resolved integer slots into a flat
// register file. Everything the wave-by-wave interpreter re-derives per
// work-item — string-keyed environments, offset-root resolution, port
// binding, opcode dispatch, pipeline depth, accumulator drain — is
// resolved here once, so the executor's inner loop touches nothing but
// slices. The lowering is split along what it depends on: a body holds
// what follows from the function and the direction of each parameter's
// stream, and is compiled once per design for each such pair; a
// program binds one call site's streams to a body. The lanes of a par
// node replicate one kernel, so they share one body. The retained
// interpreter in pipesim.go is the oracle this lowering is
// differentially tested against (fuzz_test.go).

// uop is the micro-operation code of one compiled datapath step.
type uop uint8

const (
	// uopLoadIn loads the current work-item's element of an input
	// stream: regs[dst] = ins[sidx][i].
	uopLoadIn uop = iota
	// uopLoadOff loads a window element at a pre-resolved cumulative
	// offset, zero-filled outside the stream bounds.
	uopLoadOff
	// uopBin applies a pre-resolved binary evaluation closure.
	uopBin
	// uopBinAcc is the reduction idiom: acc[dst] = fn2(a, b).
	uopBinAcc
	// uopUn applies a pre-resolved unary evaluation closure.
	uopUn
	// uopCmp applies a pre-resolved icmp predicate closure.
	uopCmp
	// uopSel selects regs-or-acc a or b on condition slot c.
	uopSel
	// uopOut writes the wrapped value to an output stream:
	// outs[sidx][i] = wrap(a).
	uopOut
	// uopMove copies a value between slots (comb parameter fed from an
	// accumulator, read at call position).
	uopMove
	// uopMoveWrap copies with a width wrap (comb out-parameter result
	// wires).
	uopMoveWrap

	// Specialised unsigned forms: for UInt types Wrap is a plain mask
	// (all-ones at >= 64 bits), so the dominant opcodes inline into the
	// executor switch with no closure indirection. Each must match
	// EvalBin/EvalUn bit for bit; the differential fuzz corpus and the
	// golden kernels exercise all of them.
	uopAddU
	uopSubU
	uopMulU
	uopAndU
	uopOrU
	uopXorU
	uopShlU
	uopLshrU
	uopMinU
	uopMaxU
	uopAbsU    // unsigned abs == wrap
	uopAccAddU // acc[dst] = (a + b) & mask
	uopOutU    // outs[sidx][i] = (a) & mask
	uopMoveWrapU
)

// op is one compiled datapath step. Operand encoding: a non-negative
// slot indexes the register file; a negative slot s reads accumulator
// index -1-s. Immediates and constants occupy register slots that are
// written once at compile time and never touched by the executor.
type op struct {
	code uop
	dst  int32  // register slot; accumulator index for uopBinAcc; unused for uopOut
	a, b int32  // operand encodings
	c    int32  // select condition encoding
	sidx int32  // stream index for uopLoadIn/uopLoadOff/uopOut
	off  int64  // cumulative element offset for uopLoadOff
	mask uint64 // width mask for the specialised unsigned forms
	fn2  func(a, b int64) int64
	fn1  func(a int64) int64
	wrap func(v int64) int64
}

// streamBind is one pre-resolved port binding: which memory object the
// stream index refers to, fixed at compile time by the call site's
// port wiring.
type streamBind struct {
	param string
	mem   string
	size  int64
}

// bindStep records one argument of the call site in declaration order,
// so the dynamic bind replays the oracle's arg-order semantics (an
// output materialised by an earlier argument is visible to a later
// input argument of the same call).
type bindStep struct {
	out bool
	idx int32 // index into ins or outs
}

// accInfo describes one module-level accumulator the program touches.
type accInfo struct {
	name    string
	written bool
	opc     tir.Opcode
	ty      tir.Type
	// mergeable reports that every write is the same
	// commutative-associative opcode at the same type, so the writes
	// commit the bit-exact sequential result in any order.
	mergeable bool
	// readOutsideSelf reports a read of this accumulator anywhere but a
	// reduction's own self-operand. Combined with written it pins the
	// program to item order (batching would reorder the read against
	// other items' writes).
	readOutsideSelf bool
	// writeSites counts the distinct ops writing this accumulator. With
	// one site the batched per-lane write loop replays the scalar order
	// exactly; with several, batching interleaves sites differently, so
	// it is only allowed when the writes form a mergeable reduction.
	writeSites int
	// allSelfRead reports every write is op(self, pure-value) — exactly
	// one self operand and no other accumulator operand.
	allSelfRead bool
}

// body is the compiled datapath of one pipe function under one
// assignment of stream directions to its parameters: the op program,
// its accumulators and register-file shape, and the fill cycles. Stream
// indices in ops count a direction's parameters in declaration order,
// so every call site with the same directions binds the same indices. A
// body is immutable once compileBody returns and is shared by every
// program that runs it.
type body struct {
	// dirs is each argument's port direction, the body's key within its
	// function.
	dirs []tir.Direction
	ops  []op
	accs []*accInfo
	// fill is the invocation's non-streaming cycles: burst-aligned
	// window priming + pipeline depth + handshake + accumulator drain.
	fill int64
	// bops is the batched form of the op program (nil when the body is
	// not batch-safe or batching is disabled); see batch.go.
	bops []op
	// nslots is the register-file size a progState allocates; consts
	// are the write-once constant slots it loads at construction.
	nslots int32
	consts []constSlot
}

// program is the compiled form of one PE call site: a shared body plus
// the site's stream bindings and the work-item ranges they imply. A
// program is immutable once compiled — all mutable execution state lives
// in the progState of an Instance (design.go), so one program serves any
// number of concurrent instances.
type program struct {
	*body
	ins   []streamBind
	outs  []streamBind
	binds []bindStep // call-arg declaration order over ins/outs
	items int64
	// idx is the program's slot in an Instance's progState slice,
	// assigned in compilation order by the design's walk (design.go).
	idx int

	// [loffLo, loffHi) is the interior: the work-item range where every
	// window load (uopLoadOff) is in bounds, computed from the static
	// stream shapes. The scalar executor runs it without the per-item
	// bounds branch; the batched executor runs it in full batchN chunks.
	loffLo, loffHi int64
	// batched reports that the site runs bops: the body has a batched
	// form and the site's streams are not self-aliased.
	batched bool
}

// progState is the mutable execution scratch of one program inside one
// Instance: the register file, the accumulator slab, the bound stream
// arrays, and (for batch-lowered programs) the per-slot batch lanes.
// Each Instance owns one progState per program, so instances of the
// same CompiledDesign never share executor state.
type progState struct {
	regs    []int64
	accVals []int64
	inArrs  [][]int64
	outArrs [][]int64
	bregs   []lane
}

// init allocates the scratch of one program: constants load once, here —
// their register slots (and broadcast lanes) are never written by the
// executor. Every other slot is defined before use per work-item.
func (st *progState) init(p *program) {
	st.regs = make([]int64, p.nslots)
	for _, cs := range p.consts {
		st.regs[cs.slot] = cs.val
	}
	st.accVals = make([]int64, len(p.accs))
	st.inArrs = make([][]int64, len(p.ins))
	st.outArrs = make([][]int64, len(p.outs))
	if p.batched {
		st.bregs = make([]lane, int(p.nslots)+len(p.accs))
		for _, cs := range p.consts {
			bl := &st.bregs[cs.slot]
			for l := range bl {
				bl[l] = cs.val
			}
		}
	}
}

// compiler carries the state of one lowering.
type compiler struct {
	m  *tir.Module
	fn *tir.Function
	b  *body

	nslots   int32
	slots    map[string]int32 // parent-scope SSA name -> slot
	constIdx map[int64]int32  // de-duplicated constant slots
	consts   []constSlot
	accIdx   map[string]int32

	inParams  map[string]int32 // input param -> stream index
	outParams map[string]int32 // output param -> stream index

	drain int64 // max accumulator latency among parent-level reductions
}

type constSlot struct {
	slot int32
	val  int64
}

// bindCall resolves the stream bindings of the call site of the pipe
// function fn, in argument order; tir.Analyze has checked that every
// argument wires a port of the parameter's type whose stream and memory
// object exist (TIR040, TIR041). It returns the site's program without
// a body, and dirs, each argument's port direction: the key of the body
// the site runs.
func bindCall(m *tir.Module, call *tir.CallInstr, fn *tir.Function) (p *program, dirs []tir.Direction) {
	p = &program{binds: make([]bindStep, 0, len(call.Args))}
	dirs = make([]tir.Direction, len(call.Args))
	items := int64(-1)
	for k, a := range call.Args {
		param := fn.Params[k]
		port := m.Port(a.Name)
		mo := m.MemObject(m.Stream(port.Stream).Mem)
		dirs[k] = port.Dir
		switch port.Dir {
		case tir.DirIn:
			p.binds = append(p.binds, bindStep{out: false, idx: int32(len(p.ins))})
			p.ins = append(p.ins, streamBind{param: param.Name, mem: mo.Name, size: mo.Size})
		case tir.DirOut:
			p.binds = append(p.binds, bindStep{out: true, idx: int32(len(p.outs))})
			p.outs = append(p.outs, streamBind{param: param.Name, mem: mo.Name, size: mo.Size})
		}
		if items < 0 || mo.Size < items {
			items = mo.Size
		}
	}
	p.items = items
	return p, dirs
}

// compileBody lowers the pipe function fn, of scheduled depth depth,
// with its parameters bound to streams of the directions dirs: it
// resolves offset roots, flattens comb children, pre-computes the fill
// terms and lowers the batched form unless cfg disables it or the body
// is not batch-safe.
func compileBody(m *tir.Module, fn *tir.Function, depth int, dirs []tir.Direction, cfg Config) (*body, error) {
	c := &compiler{
		m: m, fn: fn,
		b:         &body{dirs: dirs},
		slots:     map[string]int32{},
		constIdx:  map[int64]int32{},
		accIdx:    map[string]int32{},
		inParams:  map[string]int32{},
		outParams: map[string]int32{},
	}
	var nin, nout int32
	for k, dir := range dirs {
		switch dir {
		case tir.DirIn:
			c.inParams[fn.Params[k].Name] = nin
			nin++
		case tir.DirOut:
			c.outParams[fn.Params[k].Name] = nout
			nout++
		}
	}

	// Input parameters enter the register file once per work-item.
	for _, p := range fn.Params {
		sidx, ok := c.inParams[p.Name]
		if !ok {
			continue
		}
		dst := c.newSlot()
		c.slots[p.Name] = dst
		c.emit(op{code: uopLoadIn, dst: dst, sidx: sidx})
	}

	// Offset resolution: dst -> (root input stream, cumulative offset),
	// exactly the pre-pass execute() performs per invocation; Analyze
	// has rooted every offset in an input stream (TIR042).
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
		roots[o.Dst] = r
		if r.off > maxAhead {
			maxAhead = r.off
		}
	}

	// Lower the body.
	for _, in := range fn.Body {
		switch it := in.(type) {
		case *tir.OffsetInstr:
			r := roots[it.Dst]
			dst := c.newSlot()
			c.slots[it.Dst] = dst
			c.emit(op{code: uopLoadOff, dst: dst, sidx: c.inParams[r.root], off: r.off})
		case *tir.ConstInstr:
			c.slots[it.Dst] = c.constSlot(it.Ty.Wrap(it.Val))
		case *tir.OutInstr:
			// Analyze's TIR040 guarantees the port is wired to an output.
			sidx := c.outParams[it.Port]
			a := c.resolve(it.Val, c.slots)
			c.noteAccRead(a)
			if it.Ty.Kind == tir.UInt {
				c.emit(op{code: uopOutU, sidx: sidx, a: a, mask: it.Ty.Mask()})
			} else {
				c.emit(op{code: uopOut, sidx: sidx, a: a, wrap: it.Ty.Wrap})
			}
		case *tir.CallInstr:
			// A pipe calls only pipe stages, simulated separately as
			// peer PEs, and comb blocks (TIR047).
			if it.Mode == tir.ModePipe {
				continue
			}
			if err := c.inlineComb(it); err != nil {
				return nil, err
			}
		default:
			if err := c.compileALU(in, c.slots, fn.Name, true); err != nil {
				return nil, err
			}
		}
	}

	// Fill terms, hoisted out of execute(): priming completes at a DMA
	// burst boundary; drain is constant because every work-item runs
	// every reduction.
	primed := maxAhead
	if rem := primed % burstElems; rem != 0 || primed == 0 {
		primed += burstElems - rem
	}
	b := c.b
	b.fill = primed + int64(depth) + handshake + c.drain

	// Record the register-file shape; instances allocate their own
	// scratch from it (progState.init), the body itself stays
	// immutable and shareable.
	b.nslots = c.nslots
	b.consts = c.consts

	// Batch lowering runs after fill is final: it never changes
	// accounting.
	if !cfg.DisableBatch && b.batchSafe() {
		b.buildBatch()
	}
	return b, nil
}

// selfAliasedStreams reports whether an input stream and an output
// stream of this program share a memory object (the self-wired
// LocalChannel pattern). Loads then observe earlier out-writes of the
// same invocation, which pins execution to strict item order: no
// batching.
func (p *program) selfAliasedStreams() bool {
	for _, ob := range p.outs {
		for _, ib := range p.ins {
			if ib.mem == ob.mem {
				return true
			}
		}
	}
	return false
}

// computeInterior intersects the in-bounds ranges of every window load:
// a load at offset off over a stream of size s is in bounds for items
// in [max(0,-off), min(items, s-off)). Stream shapes are static, so the
// region is exact, not a heuristic.
func (p *program) computeInterior() {
	lo, hi := int64(0), p.items
	for k := range p.ops {
		o := &p.ops[k]
		if o.code != uopLoadOff {
			continue
		}
		if -o.off > lo {
			lo = -o.off
		}
		if s := p.ins[o.sidx].size - o.off; s < hi {
			hi = s
		}
	}
	if lo > p.items {
		lo = p.items
	}
	if hi < lo {
		hi = lo
	}
	p.loffLo, p.loffHi = lo, hi
}

// batchSafe reports that op-major execution inside a batch cannot be
// observed through the accumulators: an accumulator that is both
// written and read outside its own reduction pins item order, and
// multiple write sites interleave differently under batching unless
// every site is the same mergeable reduction in op(self, value) form.
func (b *body) batchSafe() bool {
	for _, a := range b.accs {
		if a.written && a.readOutsideSelf {
			return false
		}
		if a.writeSites > 1 && !(a.mergeable && a.allSelfRead) {
			return false
		}
	}
	return true
}

// compileALU lowers the pure-datapath instructions shared by pipe
// bodies and inlined comb blocks: binary, unary, icmp and select (the
// only other instructions Analyze accepts in a datapath, TIR036).
// drainEligible is true only at the parent level: the interpreter
// accounts accumulator drain for the parent wave, not for comb
// sub-blocks. It fails only on an operation with no integer evaluation,
// which Analyze reports as a warning (TIR045).
func (c *compiler) compileALU(in tir.Instr, scope map[string]int32, fname string, drainEligible bool) error {
	switch it := in.(type) {
	case *tir.BinInstr:
		fn2, ok := tir.BinEval(it.Op, it.Ty)
		if !ok {
			return fmt.Errorf("pipesim: @%s: %s is not a binary integer opcode", fname, it.Op)
		}
		a, b := c.resolve(it.A, scope), c.resolve(it.B, scope)
		if it.GlobalDst {
			c.compileAccWrite(it, a, b, fn2, drainEligible)
			return nil
		}
		c.noteAccRead(a)
		c.noteAccRead(b)
		dst := c.newSlot()
		scope[it.Dst] = dst
		if code, ok := uintBinUop(it.Op, it.Ty); ok {
			c.emit(op{code: code, dst: dst, a: a, b: b, mask: it.Ty.Mask()})
		} else {
			c.emit(op{code: uopBin, dst: dst, a: a, b: b, fn2: fn2})
		}
	case *tir.UnInstr:
		fn1, ok := tir.UnEval(it.Op, it.Ty)
		if !ok {
			return fmt.Errorf("pipesim: @%s: %s is not a unary integer opcode", fname, it.Op)
		}
		a := c.resolve(it.A, scope)
		c.noteAccRead(a)
		dst := c.newSlot()
		scope[it.Dst] = dst
		if it.Op == tir.OpAbs && it.Ty.Kind == tir.UInt {
			c.emit(op{code: uopAbsU, dst: dst, a: a, mask: it.Ty.Mask()})
		} else {
			c.emit(op{code: uopUn, dst: dst, a: a, fn1: fn1})
		}
	case *tir.CmpInstr:
		fn2, ok := tir.CmpEval(it.Pred, it.Ty)
		if !ok {
			return fmt.Errorf("pipesim: @%s: invalid icmp predicate %q", fname, it.Pred)
		}
		a, b := c.resolve(it.A, scope), c.resolve(it.B, scope)
		c.noteAccRead(a)
		c.noteAccRead(b)
		dst := c.newSlot()
		scope[it.Dst] = dst
		c.emit(op{code: uopCmp, dst: dst, a: a, b: b, fn2: fn2})
	case *tir.SelectInstr:
		cond, a, b := c.resolve(it.Cond, scope), c.resolve(it.A, scope), c.resolve(it.B, scope)
		c.noteAccRead(cond)
		c.noteAccRead(a)
		c.noteAccRead(b)
		dst := c.newSlot()
		scope[it.Dst] = dst
		c.emit(op{code: uopSel, dst: dst, c: cond, a: a, b: b})
	}
	return nil
}

// compileAccWrite lowers the reduction idiom @acc = op v, @acc and
// classifies the accumulator for the batch-safety analysis.
func (c *compiler) compileAccWrite(it *tir.BinInstr, a, b int32, fn2 func(int64, int64) int64, drainEligible bool) {
	ai := c.accSlot(it.Dst)
	info := c.b.accs[ai]
	_, mergeable := tir.AccIdentity(it.Op, it.Ty)
	first := !info.written
	if first {
		info.written = true
		info.opc, info.ty = it.Op, it.Ty
		info.mergeable = mergeable
	} else if info.opc != it.Op || info.ty != it.Ty {
		info.mergeable = false
	}
	info.writeSites++
	// Any accumulator operand other than the self-read is an
	// order-dependent read.
	selfA := it.A.Kind == tir.OpGlobal && it.A.Name == it.Dst
	selfB := it.B.Kind == tir.OpGlobal && it.B.Name == it.Dst
	if !selfA && it.A.Kind == tir.OpGlobal {
		c.noteAccRead(a)
	}
	if !selfB && it.B.Kind == tir.OpGlobal {
		c.noteAccRead(b)
	}
	selfForm := selfA != selfB &&
		!(!selfA && it.A.Kind == tir.OpGlobal) && !(!selfB && it.B.Kind == tir.OpGlobal)
	if first {
		info.allSelfRead = selfForm
	} else if !selfForm {
		info.allSelfRead = false
	}
	if drainEligible {
		if l := int64(it.Op.Latency(it.Ty.Bits)); l > c.drain {
			c.drain = l
		}
	}
	if it.Op == tir.OpAdd && it.Ty.Kind == tir.UInt {
		c.emit(op{code: uopAccAddU, dst: ai, a: a, b: b, mask: it.Ty.Mask()})
	} else {
		c.emit(op{code: uopBinAcc, dst: ai, a: a, b: b, fn2: fn2})
	}
}

// uintBinUop maps a binary opcode at an unsigned type to its inline
// executor specialisation, when one exists.
func uintBinUop(opc tir.Opcode, ty tir.Type) (uop, bool) {
	if ty.Kind != tir.UInt {
		return 0, false
	}
	switch opc {
	case tir.OpAdd:
		return uopAddU, true
	case tir.OpSub:
		return uopSubU, true
	case tir.OpMul:
		return uopMulU, true
	case tir.OpAnd:
		return uopAndU, true
	case tir.OpOr:
		return uopOrU, true
	case tir.OpXor:
		return uopXorU, true
	case tir.OpShl:
		return uopShlU, true
	case tir.OpLshr:
		return uopLshrU, true
	case tir.OpMin:
		return uopMinU, true
	case tir.OpMax:
		return uopMaxU, true
	}
	return 0, false
}

// inlineComb flattens a comb child into the parent program: in-args
// alias parent slots (or constant slots), the child body lowers into
// fresh slots, and `out`-bound parameters define the parent wires the
// call site names. Analyze has resolved the callee (TIR025), defined
// every argument the child reads (TIR024), kept streams and calls out
// of the child (TIR034) and its driven parameters out of its reads
// (TIR048).
func (c *compiler) inlineComb(call *tir.CallInstr) error {
	callee := c.m.Func(call.Callee)
	outs := callee.OutParams()
	scope := map[string]int32{}
	for k, a := range call.Args {
		param := callee.Params[k]
		if outs[param.Name] {
			continue
		}
		switch a.Kind {
		case tir.OpImm:
			scope[param.Name] = c.constSlot(a.Imm)
		case tir.OpGlobal:
			// The accumulator is sampled at the call position.
			enc := c.accEnc(a.Name)
			c.noteAccRead(enc)
			dst := c.newSlot()
			scope[param.Name] = dst
			c.emit(op{code: uopMove, dst: dst, a: enc})
		default:
			scope[param.Name] = c.slots[a.Name]
		}
	}
	for _, in := range callee.Body {
		switch it := in.(type) {
		case *tir.ConstInstr:
			scope[it.Dst] = c.constSlot(it.Ty.Wrap(it.Val))
		case *tir.OutInstr:
			val := c.resolve(it.Val, scope)
			c.noteAccRead(val)
			for k, a := range call.Args {
				if callee.Params[k].Name != it.Port || a.Kind != tir.OpReg {
					continue
				}
				dst := c.newSlot()
				c.slots[a.Name] = dst
				if it.Ty.Kind == tir.UInt {
					c.emit(op{code: uopMoveWrapU, dst: dst, a: val, mask: it.Ty.Mask()})
				} else {
					c.emit(op{code: uopMoveWrap, dst: dst, a: val, wrap: it.Ty.Wrap})
				}
			}
		default:
			if err := c.compileALU(in, scope, callee.Name, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// resolve encodes an operand: immediates become constant slots,
// globals become negative accumulator encodings, registers look up the
// scope, where Analyze has defined them (TIR024, TIR040, TIR048).
func (c *compiler) resolve(o tir.Operand, scope map[string]int32) int32 {
	switch o.Kind {
	case tir.OpImm:
		return c.constSlot(o.Imm)
	case tir.OpGlobal:
		return c.accEnc(o.Name)
	default:
		return scope[o.Name]
	}
}

// noteAccRead records, for the batch-safety analysis, an operand that
// reads an accumulator outside the reduction self-read.
func (c *compiler) noteAccRead(enc int32) {
	if enc < 0 {
		c.b.accs[-1-enc].readOutsideSelf = true
	}
}

func (c *compiler) emit(o op) { c.b.ops = append(c.b.ops, o) }

func (c *compiler) newSlot() int32 {
	s := c.nslots
	c.nslots++
	return s
}

// constSlot interns a constant value into a write-once register slot.
func (c *compiler) constSlot(v int64) int32 {
	if s, ok := c.constIdx[v]; ok {
		return s
	}
	s := c.newSlot()
	c.constIdx[v] = s
	c.consts = append(c.consts, constSlot{slot: s, val: v})
	return s
}

// accEnc returns the negative operand encoding of an accumulator.
func (c *compiler) accEnc(name string) int32 { return -1 - c.accSlot(name) }

func (c *compiler) accSlot(name string) int32 {
	if i, ok := c.accIdx[name]; ok {
		return i
	}
	i := int32(len(c.b.accs))
	c.accIdx[name] = i
	c.b.accs = append(c.b.accs, &accInfo{name: name})
	return i
}

// exec streams every work-item through the compiled datapath using one
// instance's scratch: st.inArrs/st.outArrs are the bound memory arrays
// in program order, st.accVals the accumulator slab. Batch-safe
// programs run the interior on the batched executor (batch.go);
// everything else runs the scalar loop in three regions, so the
// uopLoadOff bounds branch is paid only at the boundaries. Neither path
// allocates or touches a map.
func (p *program) exec(st *progState) {
	if p.batched {
		p.execBatched(st)
		return
	}
	p.execRange(st, 0, p.loffLo, true)
	p.execRange(st, p.loffLo, p.loffHi, false)
	p.execRange(st, p.loffHi, p.items, true)
}

// execRange is the scalar loop over work-items [i0, i1). checked=false
// asserts every window load in the range is in bounds (the interior
// region computeInterior proved), dropping the branch and the zero-fill
// path from the steady state.
func (p *program) execRange(st *progState, i0, i1 int64, checked bool) {
	ins, outs, acc := st.inArrs, st.outArrs, st.accVals
	regs := st.regs
	ops := p.ops
	for i := i0; i < i1; i++ {
		for k := range ops {
			o := &ops[k]
			switch o.code {
			case uopLoadIn:
				regs[o.dst] = ins[o.sidx][i]
			case uopLoadOff:
				if checked {
					src := ins[o.sidx]
					j := i + o.off
					var v int64
					if j >= 0 && j < int64(len(src)) {
						v = src[j]
					}
					regs[o.dst] = v
				} else {
					regs[o.dst] = ins[o.sidx][i+o.off]
				}
			case uopAddU:
				regs[o.dst] = int64(uint64(ld(regs, acc, o.a)+ld(regs, acc, o.b)) & o.mask)
			case uopSubU:
				regs[o.dst] = int64(uint64(ld(regs, acc, o.a)-ld(regs, acc, o.b)) & o.mask)
			case uopMulU:
				regs[o.dst] = int64(uint64(ld(regs, acc, o.a)*ld(regs, acc, o.b)) & o.mask)
			case uopAndU:
				regs[o.dst] = int64(uint64(ld(regs, acc, o.a)&ld(regs, acc, o.b)) & o.mask)
			case uopOrU:
				regs[o.dst] = int64(uint64(ld(regs, acc, o.a)|ld(regs, acc, o.b)) & o.mask)
			case uopXorU:
				regs[o.dst] = int64(uint64(ld(regs, acc, o.a)^ld(regs, acc, o.b)) & o.mask)
			case uopShlU:
				regs[o.dst] = int64(uint64(ld(regs, acc, o.a)<<(uint64(ld(regs, acc, o.b))&63)) & o.mask)
			case uopLshrU:
				regs[o.dst] = int64((uint64(ld(regs, acc, o.a)) & o.mask) >> (uint64(ld(regs, acc, o.b)) & 63))
			case uopMinU:
				a, b := ld(regs, acc, o.a), ld(regs, acc, o.b)
				if uint64(a)&o.mask < uint64(b)&o.mask {
					regs[o.dst] = int64(uint64(a) & o.mask)
				} else {
					regs[o.dst] = int64(uint64(b) & o.mask)
				}
			case uopMaxU:
				a, b := ld(regs, acc, o.a), ld(regs, acc, o.b)
				if uint64(a)&o.mask < uint64(b)&o.mask {
					regs[o.dst] = int64(uint64(b) & o.mask)
				} else {
					regs[o.dst] = int64(uint64(a) & o.mask)
				}
			case uopAbsU:
				regs[o.dst] = int64(uint64(ld(regs, acc, o.a)) & o.mask)
			case uopAccAddU:
				acc[o.dst] = int64(uint64(ld(regs, acc, o.a)+ld(regs, acc, o.b)) & o.mask)
			case uopOutU:
				outs[o.sidx][i] = int64(uint64(ld(regs, acc, o.a)) & o.mask)
			case uopMoveWrapU:
				regs[o.dst] = int64(uint64(ld(regs, acc, o.a)) & o.mask)
			case uopBin, uopCmp:
				regs[o.dst] = o.fn2(ld(regs, acc, o.a), ld(regs, acc, o.b))
			case uopBinAcc:
				acc[o.dst] = o.fn2(ld(regs, acc, o.a), ld(regs, acc, o.b))
			case uopUn:
				regs[o.dst] = o.fn1(ld(regs, acc, o.a))
			case uopSel:
				if ld(regs, acc, o.c) != 0 {
					regs[o.dst] = ld(regs, acc, o.a)
				} else {
					regs[o.dst] = ld(regs, acc, o.b)
				}
			case uopOut:
				outs[o.sidx][i] = o.wrap(ld(regs, acc, o.a))
			case uopMove:
				regs[o.dst] = ld(regs, acc, o.a)
			case uopMoveWrap:
				regs[o.dst] = o.wrap(ld(regs, acc, o.a))
			}
		}
	}
}

// ld reads an operand encoding: non-negative is a register slot,
// negative is accumulator -1-s.
func ld(regs, acc []int64, s int32) int64 {
	if s >= 0 {
		return regs[s]
	}
	return acc[-1-s]
}
