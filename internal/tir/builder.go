package tir

import (
	"strconv"

	"repro/internal/diag"
)

// Builder constructs Modules programmatically. It is used by the kernel
// library and the type-transformation front-end, which lower functional
// programs to IR without going through the surface syntax.
//
// The builder takes care of the Manage-IR / Compute-IR plumbing: a single
// InStream/OutStream call creates the memory object, the stream object,
// the port declaration and the function parameter together.
type Builder struct {
	mod     *Module
	nextTmp int
	errs    diag.List
}

// NewBuilder returns a builder for a module with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{mod: &Module{Name: name}}
}

// Module finalises the module. It fails only on builder misuse
// recorded during construction (TIR050, e.g. a Bin over mismatched
// operand types), which surfaces here as diagnostics rather than
// crashing at the call site; whether the module is legal is the
// verdict of elab.Elaborate.
func (b *Builder) Module() (*Module, error) {
	if err := b.errs.ErrOrNil(); err != nil {
		return nil, err
	}
	return b.mod, nil
}

// MustModule finalises the module and panics on builder misuse; for
// use by statically-known-correct builders (the kernel library).
func (b *Builder) MustModule() *Module {
	m, err := b.Module()
	if err != nil {
		panic(err)
	}
	return m
}

// MemObject declares a Manage-IR memory object and returns its name.
func (b *Builder) MemObject(name string, elem Type, size int64, space MemSpace, pattern AccessPattern, stride int64) string {
	if stride <= 0 {
		stride = 1
	}
	b.mod.MemObjects = append(b.mod.MemObjects, &MemObject{
		Name: name, Elem: elem, Size: size, Space: space, Pattern: pattern, Stride: stride,
	})
	return name
}

// GlobalPort declares a top-level stream end-to-end — memory object,
// stream object and port — owned by function fn but not bound to any
// parameter. It returns the @fn.name operand used to wire the port to a
// kernel parameter at a call site, the idiom of the paper's multi-lane
// configuration (Fig 14: @main.p0 … @main.p3 feeding four @f0 lanes).
func (b *Builder) GlobalPort(fn, name string, ty Type, size int64, dir Direction, pattern AccessPattern, stride int64) Operand {
	if stride <= 0 {
		stride = 1
	}
	qual := fn + "." + name
	memName := "mem_" + fn + "_" + name
	strName := "strobj_" + fn + "_" + name
	b.MemObject(memName, ty, size, SpaceGlobal, pattern, stride)
	b.mod.Streams = append(b.mod.Streams, &StreamObject{Name: strName, Mem: memName, Dir: dir, Port: qual})
	metaStride := int64(0)
	if pattern == PatternStrided {
		metaStride = stride
	}
	b.mod.Ports = append(b.mod.Ports, &Port{
		Name: qual, AddrSpace: 12, Elem: ty, Dir: dir, Pattern: pattern, Stride: metaStride, Stream: strName,
	})
	return Global(qual)
}

// LocalChannel declares an on-chip inter-stage buffer for a
// coarse-grained pipeline (Fig 7 configuration 3): a local-memory object
// with a write stream and a read stream. It returns the operands wired
// to the producer's output port and the consumer's input port.
func (b *Builder) LocalChannel(fn, name string, ty Type, size int64) (write, read Operand) {
	memName := "mem_" + fn + "_" + name
	b.MemObject(memName, ty, size, SpaceLocal, PatternContiguous, 1)
	wQual := fn + "." + name + "_w"
	rQual := fn + "." + name + "_r"
	wStr := "strobj_" + fn + "_" + name + "_w"
	rStr := "strobj_" + fn + "_" + name + "_r"
	b.mod.Streams = append(b.mod.Streams,
		&StreamObject{Name: wStr, Mem: memName, Dir: DirOut, Port: wQual},
		&StreamObject{Name: rStr, Mem: memName, Dir: DirIn, Port: rQual},
	)
	b.mod.Ports = append(b.mod.Ports,
		&Port{Name: wQual, AddrSpace: 2, Elem: ty, Dir: DirOut, Pattern: PatternContiguous, Stream: wStr},
		&Port{Name: rQual, AddrSpace: 2, Elem: ty, Dir: DirIn, Pattern: PatternContiguous, Stream: rStr},
	)
	return Global(wQual), Global(rQual)
}

// Func opens a new function builder. Functions should be created in
// call order (children before the parent is fine; order only affects
// printing).
func (b *Builder) Func(name string, mode ParMode) *FuncBuilder {
	f := &Function{Name: name, Mode: mode}
	b.mod.Funcs = append(b.mod.Funcs, f)
	return &FuncBuilder{b: b, f: f}
}

// Value is a typed SSA handle returned by builder operations.
type Value struct {
	Op Operand
	Ty Type
}

// FuncBuilder accumulates the parameters and body of one function.
type FuncBuilder struct {
	b    *Builder
	f    *Function
	next int
}

// Fn returns the function under construction.
func (fb *FuncBuilder) Fn() *Function { return fb.f }

// Param adds a plain parameter (a value passed from the parent, not a
// top-level stream).
func (fb *FuncBuilder) Param(name string, ty Type) Value {
	fb.f.Params = append(fb.f.Params, Param{Name: name, Ty: ty})
	return Value{Op: Reg(name), Ty: ty}
}

// InStream declares an input stream end-to-end: a global memory object
// of the given size, a stream object, a port on this function, and the
// corresponding parameter. It returns the parameter value.
func (fb *FuncBuilder) InStream(name string, ty Type, size int64, pattern AccessPattern, stride int64) Value {
	return fb.stream(name, ty, size, pattern, stride, DirIn)
}

// OutStream declares an output stream end-to-end and returns the
// parameter value standing for the output port.
func (fb *FuncBuilder) OutStream(name string, ty Type, size int64, pattern AccessPattern, stride int64) Value {
	return fb.stream(name, ty, size, pattern, stride, DirOut)
}

func (fb *FuncBuilder) stream(name string, ty Type, size int64, pattern AccessPattern, stride int64, dir Direction) Value {
	if stride <= 0 {
		stride = 1
	}
	memName := "mem_" + fb.f.Name + "_" + name
	strName := "strobj_" + fb.f.Name + "_" + name
	fb.b.MemObject(memName, ty, size, SpaceGlobal, pattern, stride)
	qual := fb.f.Name + "." + name
	fb.b.mod.Streams = append(fb.b.mod.Streams, &StreamObject{Name: strName, Mem: memName, Dir: dir, Port: qual})
	metaStride := int64(0)
	if pattern == PatternStrided {
		metaStride = stride
	}
	fb.b.mod.Ports = append(fb.b.mod.Ports, &Port{
		Name: qual, AddrSpace: 12, Elem: ty, Dir: dir, Pattern: pattern, Stride: metaStride, Stream: strName,
	})
	return fb.Param(name, ty)
}

// fresh returns a fresh SSA name.
func (fb *FuncBuilder) fresh() string {
	fb.next++
	return strconv.Itoa(fb.next)
}

// Offset emits a stream-offset instruction (the stencil-neighbour
// mechanism): dst sees src shifted by off elements.
func (fb *FuncBuilder) Offset(src Value, off int64) Value {
	d := fb.fresh()
	fb.f.Body = append(fb.f.Body, &OffsetInstr{Dst: d, Ty: src.Ty, Src: src.Op, Offset: off})
	return Value{Op: Reg(d), Ty: src.Ty}
}

// NamedOffset is Offset with an explicit destination name (matches the
// paper's %pip1-style names for readability of emitted IR).
func (fb *FuncBuilder) NamedOffset(name string, src Value, off int64) Value {
	fb.f.Body = append(fb.f.Body, &OffsetInstr{Dst: name, Ty: src.Ty, Src: src.Op, Offset: off})
	return Value{Op: Reg(name), Ty: src.Ty}
}

// Const emits a constant definition.
func (fb *FuncBuilder) Const(ty Type, v int64) Value {
	d := fb.fresh()
	fb.f.Body = append(fb.f.Body, &ConstInstr{Dst: d, Ty: ty, Val: v})
	return Value{Op: Reg(d), Ty: ty}
}

// NamedConst is Const with an explicit destination name.
func (fb *FuncBuilder) NamedConst(name string, ty Type, v int64) Value {
	fb.f.Body = append(fb.f.Body, &ConstInstr{Dst: name, Ty: ty, Val: v})
	return Value{Op: Reg(name), Ty: ty}
}

// Bin emits a binary instruction. Operand types must agree; a mismatch
// is recorded on the builder and returned from Module, so programmatic
// front-ends (which lower user input) cannot crash their callers.
// Construction continues with the left operand's type to keep later
// diagnostics meaningful.
func (fb *FuncBuilder) Bin(op Opcode, a, b Value) Value {
	if a.Ty != b.Ty {
		fb.b.errs.Errorf(CodeBuilderType, diag.Pos{File: fb.b.mod.Name},
			"@%s: %s operand types differ: %s vs %s", fb.f.Name, op, a.Ty, b.Ty)
	}
	d := fb.fresh()
	fb.f.Body = append(fb.f.Body, &BinInstr{Dst: d, Op: op, Ty: a.Ty, A: a.Op, B: b.Op})
	return Value{Op: Reg(d), Ty: a.Ty}
}

// Add, Sub, Mul, Div are convenience wrappers over Bin.
func (fb *FuncBuilder) Add(a, b Value) Value { return fb.Bin(OpAdd, a, b) }
func (fb *FuncBuilder) Sub(a, b Value) Value { return fb.Bin(OpSub, a, b) }
func (fb *FuncBuilder) Mul(a, b Value) Value { return fb.Bin(OpMul, a, b) }
func (fb *FuncBuilder) Div(a, b Value) Value { return fb.Bin(OpDiv, a, b) }

// MulImm multiplies by an immediate constant. Constant multiplications
// are realised as LUT shift/add trees by the back-end (no DSPs), which is
// why the paper's integer SOR uses zero DSP blocks.
func (fb *FuncBuilder) MulImm(a Value, k int64) Value {
	d := fb.fresh()
	fb.f.Body = append(fb.f.Body, &BinInstr{Dst: d, Op: OpMul, Ty: a.Ty, A: a.Op, B: Imm(k)})
	return Value{Op: Reg(d), Ty: a.Ty}
}

// BinImm emits a binary instruction whose second operand is an immediate
// (constant shifts and adds; constant multiplies have MulImm).
func (fb *FuncBuilder) BinImm(op Opcode, a Value, k int64) Value {
	d := fb.fresh()
	fb.f.Body = append(fb.f.Body, &BinInstr{Dst: d, Op: op, Ty: a.Ty, A: a.Op, B: Imm(k)})
	return Value{Op: Reg(d), Ty: a.Ty}
}

// Un emits a unary instruction.
func (fb *FuncBuilder) Un(op Opcode, a Value) Value {
	d := fb.fresh()
	fb.f.Body = append(fb.f.Body, &UnInstr{Dst: d, Op: op, Ty: a.Ty, A: a.Op})
	return Value{Op: Reg(d), Ty: a.Ty}
}

// Cmp emits an icmp, yielding a ui1.
func (fb *FuncBuilder) Cmp(pred string, a, b Value) Value {
	d := fb.fresh()
	fb.f.Body = append(fb.f.Body, &CmpInstr{Dst: d, Pred: pred, Ty: a.Ty, A: a.Op, B: b.Op})
	return Value{Op: Reg(d), Ty: UIntT(1)}
}

// Select emits a 2:1 mux.
func (fb *FuncBuilder) Select(cond, a, b Value) Value {
	d := fb.fresh()
	fb.f.Body = append(fb.f.Body, &SelectInstr{Dst: d, Cond: cond.Op, Ty: a.Ty, A: a.Op, B: b.Op})
	return Value{Op: Reg(d), Ty: a.Ty}
}

// Out binds a computed value to an output stream port declared with
// OutStream. port must be the Value returned by OutStream (or Param).
func (fb *FuncBuilder) Out(port, v Value) {
	fb.f.Body = append(fb.f.Body, &OutInstr{Port: port.Op.Name, Ty: port.Ty, Val: v.Op})
}

// Accumulate emits the global-reduction idiom: @name = op(v, @name).
func (fb *FuncBuilder) Accumulate(name string, op Opcode, v Value) {
	fb.f.Body = append(fb.f.Body, &BinInstr{
		Dst: name, GlobalDst: true, Op: op, Ty: v.Ty, A: v.Op, B: Global(name),
	})
}

// Call emits a call to a child function.
func (fb *FuncBuilder) Call(callee string, mode ParMode, args ...Value) {
	ops := make([]Operand, len(args))
	for i, a := range args {
		ops[i] = a.Op
	}
	fb.f.Body = append(fb.f.Body, &CallInstr{Callee: callee, Args: ops, Mode: mode})
}

// CallOperands emits a call with raw operands (used when replicating
// lanes whose arguments are distinct stream ports).
func (fb *FuncBuilder) CallOperands(callee string, mode ParMode, args ...Operand) {
	fb.f.Body = append(fb.f.Body, &CallInstr{Callee: callee, Args: args, Mode: mode})
}
