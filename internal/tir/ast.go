package tir

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/diag"
)

// ParMode is the parallelism keyword attached to a Compute-IR function or
// call site (§IV). The combinations of modes across the function
// hierarchy span the design space of Fig 5; the subsets exercised by the
// compiler are the four configurations of Fig 7.
type ParMode int

const (
	// ModePipe is pipeline parallelism: the function body is realised as
	// a streaming datapath, one work-item entering per cycle.
	ModePipe ParMode = iota
	// ModePar is thread parallelism: the children execute concurrently
	// in replicated lanes.
	ModePar
	// ModeSeq is sequential execution: children run one after another.
	ModeSeq
	// ModeComb is a single-cycle custom combinatorial block.
	ModeComb
)

// String renders the mode keyword as it appears in the IR.
func (m ParMode) String() string {
	switch m {
	case ModePipe:
		return "pipe"
	case ModePar:
		return "par"
	case ModeSeq:
		return "seq"
	case ModeComb:
		return "comb"
	}
	return fmt.Sprintf("?mode(%d)", int(m))
}

// ParseParMode parses a parallelism keyword.
func ParseParMode(s string) (ParMode, error) {
	switch s {
	case "pipe":
		return ModePipe, nil
	case "par":
		return ModePar, nil
	case "seq":
		return ModeSeq, nil
	case "comb":
		return ModeComb, nil
	}
	return 0, fmt.Errorf("tir: invalid parallelism keyword %q", s)
}

// MemSpace is the memory-hierarchy level of a memory object, following
// the numbering of the TyTra memory model (Fig 4): 0 private registers,
// 1 global DRAM, 2 local block-RAM, 3 constant, 4 host DRAM.
type MemSpace int

const (
	SpacePrivate  MemSpace = 0
	SpaceGlobal   MemSpace = 1
	SpaceLocal    MemSpace = 2
	SpaceConstant MemSpace = 3
	SpaceHost     MemSpace = 4
)

// String renders the space keyword.
func (s MemSpace) String() string {
	switch s {
	case SpacePrivate:
		return "private"
	case SpaceGlobal:
		return "global"
	case SpaceLocal:
		return "local"
	case SpaceConstant:
		return "constant"
	case SpaceHost:
		return "host"
	}
	return fmt.Sprintf("?space(%d)", int(s))
}

// ParseMemSpace parses a memory-space keyword.
func ParseMemSpace(s string) (MemSpace, error) {
	switch s {
	case "private":
		return SpacePrivate, nil
	case "global":
		return SpaceGlobal, nil
	case "local":
		return SpaceLocal, nil
	case "constant":
		return SpaceConstant, nil
	case "host":
		return SpaceHost, nil
	}
	return 0, fmt.Errorf("tir: invalid memory space %q", s)
}

// AccessPattern is the streaming data-pattern model of §III-6: the
// prototype distinguishes contiguous access from constant-stride access.
type AccessPattern int

const (
	// PatternContiguous streams consecutive addresses ("CONT").
	PatternContiguous AccessPattern = iota
	// PatternStrided streams with a constant stride ("STRIDED").
	PatternStrided
)

// String renders the pattern in the IR's metadata spelling.
func (p AccessPattern) String() string {
	if p == PatternStrided {
		return "STRIDED"
	}
	return "CONT"
}

// ParseAccessPattern parses a pattern keyword (case-insensitive).
func ParseAccessPattern(s string) (AccessPattern, error) {
	switch strings.ToUpper(s) {
	case "CONT", "CONTIGUOUS":
		return PatternContiguous, nil
	case "STRIDED", "STRIDE":
		return PatternStrided, nil
	}
	return 0, fmt.Errorf("tir: invalid access pattern %q", s)
}

// Direction of a stream relative to the processing element.
type Direction int

const (
	// DirIn streams from memory into the PE ("istream").
	DirIn Direction = iota
	// DirOut streams from the PE into memory ("ostream").
	DirOut
)

// String renders the direction as the port metadata spelling.
func (d Direction) String() string {
	if d == DirOut {
		return "ostream"
	}
	return "istream"
}

// MemObject is a Manage-IR memory object: any entity that can source or
// sink a stream; the equivalent of an array in a software description.
type MemObject struct {
	Name    string // without the leading '%'
	Elem    Type
	Size    int64 // number of elements
	Space   MemSpace
	Pattern AccessPattern
	Stride  int64    // element stride for PatternStrided; 1 otherwise
	At      diag.Pos // declaration position; zero for built modules
}

// Bytes returns the total storage footprint of the object.
func (m *MemObject) Bytes() int64 { return m.Size * int64(m.Elem.Bytes()) }

// StreamObject is a Manage-IR stream object connecting a memory object to
// a named streaming port of the compute hierarchy.
type StreamObject struct {
	Name string // without the leading '%'
	Mem  string // memory object name
	Dir  Direction
	Port string   // port name this stream services, e.g. "main.p"
	At   diag.Pos // declaration position; zero for built modules
}

// Port is a Compute-IR stream-port declaration:
//
//	@main.p = addrSpace(12) ui18, !"istream", !"CONT", !0, !"strobj_p"
//
// AddrSpace follows the paper's convention of encoding the hierarchy
// levels traversed (e.g. 12 = global memory via local buffering).
type Port struct {
	Name      string // qualified, e.g. "main.p" (without the leading '@')
	AddrSpace int
	Elem      Type
	Dir       Direction
	Pattern   AccessPattern
	Stride    int64    // metadata int: stride for STRIDED, else 0
	Stream    string   // stream object name
	At        diag.Pos // declaration position; zero for built modules
}

// FuncName returns the function component of the port name ("main" for
// "main.p"), or "" if unqualified.
func (p *Port) FuncName() string {
	if i := strings.LastIndexByte(p.Name, '.'); i >= 0 {
		return p.Name[:i]
	}
	return ""
}

// OperandKind discriminates instruction operands.
type OperandKind int

const (
	// OpReg is a local SSA register, written %name.
	OpReg OperandKind = iota
	// OpGlobal is a module-level accumulator, written @name.
	OpGlobal
	// OpImm is an integer immediate.
	OpImm
)

// Operand is a value reference in an instruction.
type Operand struct {
	Kind OperandKind
	Name string // for OpReg / OpGlobal
	Imm  int64  // for OpImm
}

// Reg returns a register operand.
func Reg(name string) Operand { return Operand{Kind: OpReg, Name: name} }

// Global returns a global-accumulator operand.
func Global(name string) Operand { return Operand{Kind: OpGlobal, Name: name} }

// Imm returns an immediate operand.
func Imm(v int64) Operand { return Operand{Kind: OpImm, Imm: v} }

// String renders the operand in IR syntax.
func (o Operand) String() string {
	switch o.Kind {
	case OpReg:
		return "%" + o.Name
	case OpGlobal:
		return "@" + o.Name
	default:
		return strconv.FormatInt(o.Imm, 10)
	}
}

// Instr is a Compute-IR instruction. Exactly one of the concrete types
// below implements it.
type Instr interface {
	isInstr()
	// Defs returns the SSA name defined, or "" (calls define nothing).
	Defs() string
	// Uses returns the operands read.
	Uses() []Operand
	// Pos returns the instruction's source position (zero for built
	// modules).
	Pos() diag.Pos
	String() string
}

// OffsetInstr creates a shifted copy of a stream:
//
//	ui18 %pip1 = ui18 %p, !offset, !+1
//
// A positive offset looks ahead in the stream (requiring a buffer of that
// depth); a negative offset looks behind (a delay line).
type OffsetInstr struct {
	Dst    string
	Ty     Type
	Src    Operand // must be a register or port stream
	Offset int64
	At     diag.Pos
}

func (*OffsetInstr) isInstr()          {}
func (i *OffsetInstr) Defs() string    { return i.Dst }
func (i *OffsetInstr) Uses() []Operand { return []Operand{i.Src} }
func (i *OffsetInstr) Pos() diag.Pos   { return i.At }
func (i *OffsetInstr) String() string {
	sign := "+"
	off := i.Offset
	if off < 0 {
		sign, off = "-", -off
	}
	return fmt.Sprintf("%s %%%s = %s %s, !offset, !%s%d", i.Ty, i.Dst, i.Ty, i.Src, sign, off)
}

// ConstInstr binds an immediate to an SSA name:
//
//	ui18 %omega = const ui18 13
type ConstInstr struct {
	Dst string
	Ty  Type
	Val int64
	At  diag.Pos
}

func (*ConstInstr) isInstr()          {}
func (i *ConstInstr) Defs() string    { return i.Dst }
func (i *ConstInstr) Uses() []Operand { return nil }
func (i *ConstInstr) Pos() diag.Pos   { return i.At }
func (i *ConstInstr) String() string {
	return fmt.Sprintf("%s %%%s = const %s %d", i.Ty, i.Dst, i.Ty, i.Val)
}

// BinInstr is a two-operand arithmetic/logic instruction:
//
//	ui18 %1 = mul ui18 %p_i_p1, %cn2l
//
// When GlobalDst is true the destination is a module-level accumulator
// (the reduction idiom of Fig 12, line 15):
//
//	ui18 @sorErrAcc = add ui18 %sorErr, @sorErrAcc
type BinInstr struct {
	Dst       string
	GlobalDst bool
	Op        Opcode
	Ty        Type
	A, B      Operand
	At        diag.Pos
}

func (*BinInstr) isInstr()          {}
func (i *BinInstr) Defs() string    { return i.Dst }
func (i *BinInstr) Uses() []Operand { return []Operand{i.A, i.B} }
func (i *BinInstr) Pos() diag.Pos   { return i.At }
func (i *BinInstr) String() string {
	sigil := "%"
	if i.GlobalDst {
		sigil = "@"
	}
	return fmt.Sprintf("%s %s%s = %s %s %s, %s", i.Ty, sigil, i.Dst, i.Op, i.Ty, i.A, i.B)
}

// UnInstr is a one-operand instruction (abs, not, sqrt, recip).
type UnInstr struct {
	Dst string
	Op  Opcode
	Ty  Type
	A   Operand
	At  diag.Pos
}

func (*UnInstr) isInstr()          {}
func (i *UnInstr) Defs() string    { return i.Dst }
func (i *UnInstr) Uses() []Operand { return []Operand{i.A} }
func (i *UnInstr) Pos() diag.Pos   { return i.At }
func (i *UnInstr) String() string {
	return fmt.Sprintf("%s %%%s = %s %s %s", i.Ty, i.Dst, i.Op, i.Ty, i.A)
}

// CmpInstr compares two operands, producing a ui1:
//
//	ui1 %c = icmp ult ui18 %a, %b
type CmpInstr struct {
	Dst  string
	Pred string // eq, ne, ult, ule, ugt, uge, slt, sle, sgt, sge
	Ty   Type   // operand type
	A, B Operand
	At   diag.Pos
}

func (*CmpInstr) isInstr()          {}
func (i *CmpInstr) Defs() string    { return i.Dst }
func (i *CmpInstr) Uses() []Operand { return []Operand{i.A, i.B} }
func (i *CmpInstr) Pos() diag.Pos   { return i.At }
func (i *CmpInstr) String() string {
	return fmt.Sprintf("ui1 %%%s = icmp %s %s %s, %s", i.Dst, i.Pred, i.Ty, i.A, i.B)
}

// SelectInstr chooses between two values on a ui1 condition:
//
//	ui18 %r = select ui1 %c, ui18 %a, %b
type SelectInstr struct {
	Dst  string
	Cond Operand
	Ty   Type
	A, B Operand
	At   diag.Pos
}

func (*SelectInstr) isInstr()          {}
func (i *SelectInstr) Defs() string    { return i.Dst }
func (i *SelectInstr) Uses() []Operand { return []Operand{i.Cond, i.A, i.B} }
func (i *SelectInstr) Pos() diag.Pos   { return i.At }
func (i *SelectInstr) String() string {
	return fmt.Sprintf("%s %%%s = select ui1 %s, %s %s, %s", i.Ty, i.Dst, i.Cond, i.Ty, i.A, i.B)
}

// OutInstr binds an SSA value to an output stream port of the enclosing
// function:
//
//	out ui18 %p_new, %reltmp_p
//
// The port must be a parameter of the function backed by an ostream; one
// element is emitted per work-item wave. Output binding is explicit so
// the pipeline simulator and the HDL generator know which value drives
// which stream without relying on dead-value heuristics.
type OutInstr struct {
	Port string // output parameter (local name)
	Ty   Type
	Val  Operand
	At   diag.Pos
}

func (*OutInstr) isInstr()          {}
func (i *OutInstr) Defs() string    { return "" }
func (i *OutInstr) Uses() []Operand { return []Operand{i.Val} }
func (i *OutInstr) Pos() diag.Pos   { return i.At }
func (i *OutInstr) String() string {
	return fmt.Sprintf("out %s %%%s, %s", i.Ty, i.Port, i.Val)
}

// CallInstr invokes a child function with a parallelism keyword:
//
//	call @f0(%a, %b) pipe
type CallInstr struct {
	Callee string
	Args   []Operand
	Mode   ParMode
	At     diag.Pos
}

func (*CallInstr) isInstr()          {}
func (i *CallInstr) Defs() string    { return "" }
func (i *CallInstr) Uses() []Operand { return i.Args }
func (i *CallInstr) Pos() diag.Pos   { return i.At }
func (i *CallInstr) String() string {
	args := make([]string, len(i.Args))
	for k, a := range i.Args {
		args[k] = a.String()
	}
	return fmt.Sprintf("call @%s(%s) %s", i.Callee, strings.Join(args, ", "), i.Mode)
}

// Param is a formal parameter of a Compute-IR function.
type Param struct {
	Name string
	Ty   Type
	At   diag.Pos
}

// Function is a Compute-IR function: the unit of architecture. A pipe
// function is a kernel pipeline; a par function replicates its children
// into lanes; a seq function runs children in turn; a comb function is a
// single-cycle combinatorial block.
type Function struct {
	Name   string
	Params []Param
	Mode   ParMode
	Body   []Instr
	At     diag.Pos // declaration position; zero for built modules
}

// Calls returns the call instructions in the body, in order.
func (f *Function) Calls() []*CallInstr {
	var out []*CallInstr
	for _, in := range f.Body {
		if c, ok := in.(*CallInstr); ok {
			out = append(out, c)
		}
	}
	return out
}

// OutParams returns the set of parameter names this function drives with
// `out` instructions: for a comb function, the wires a parent call
// receives results on; for a pipe function, its output stream ports.
func (f *Function) OutParams() map[string]bool {
	outs := map[string]bool{}
	for _, in := range f.Body {
		if o, ok := in.(*OutInstr); ok {
			outs[o.Port] = true
		}
	}
	return outs
}

// drives reports whether f binds its parameter name with an `out`: the
// membership test of OutParams, without building the set.
func (f *Function) drives(name string) bool {
	for _, in := range f.Body {
		if o, ok := in.(*OutInstr); ok && o.Port == name {
			return true
		}
	}
	return false
}

// reader returns the first instruction of the body that reads the
// value name, or nil: as an operand of a datapath instruction, the value
// of an out, or an argument of a call. An offset's source does not
// count; where offsets are rooted is checked on its own (TIR042).
func (f *Function) reader(name string) Instr {
	is := func(o Operand) bool { return o.Kind == OpReg && o.Name == name }
	for _, in := range f.Body {
		switch it := in.(type) {
		case *BinInstr:
			if is(it.A) || is(it.B) {
				return in
			}
		case *UnInstr:
			if is(it.A) {
				return in
			}
		case *CmpInstr:
			if is(it.A) || is(it.B) {
				return in
			}
		case *SelectInstr:
			if is(it.Cond) || is(it.A) || is(it.B) {
				return in
			}
		case *OutInstr:
			if is(it.Val) {
				return in
			}
		case *CallInstr:
			for _, a := range it.Args {
				if is(a) {
					return in
				}
			}
		}
	}
	return nil
}

// DatapathInstrs returns the non-call instructions in the body, in order.
func (f *Function) DatapathInstrs() []Instr {
	var out []Instr
	for _, in := range f.Body {
		if _, ok := in.(*CallInstr); !ok {
			out = append(out, in)
		}
	}
	return out
}

// Module is a complete TyTra-IR design variant: Manage-IR objects plus
// the Compute-IR hierarchy.
type Module struct {
	Name       string
	MemObjects []*MemObject
	Streams    []*StreamObject
	Ports      []*Port
	Funcs      []*Function
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Function {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Main returns the entry function ("main"), or nil.
func (m *Module) Main() *Function { return m.Func("main") }

// MemObject returns the memory object with the given name, or nil.
func (m *Module) MemObject(name string) *MemObject {
	for _, mo := range m.MemObjects {
		if mo.Name == name {
			return mo
		}
	}
	return nil
}

// Stream returns the stream object with the given name, or nil.
func (m *Module) Stream(name string) *StreamObject {
	for _, s := range m.Streams {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Port returns the port with the given qualified name, or nil.
func (m *Module) Port(name string) *Port {
	for _, p := range m.Ports {
		if p.Name == name {
			return p
		}
	}
	return nil
}
