package tir

import (
	"strings"

	"repro/internal/diag"
)

// Check performs the semantic checks of the TyTra compiler front stage:
// SSA single assignment, def-before-use, type agreement, the Manage-IR /
// Compute-IR linkage (every port backed by a stream object backed by a
// memory object), acyclic call hierarchy, and configuration legality
// (Fig 7: the supported parent/child mode combinations).
//
// Unlike a fail-fast validator it collects every finding, each tagged
// with a stable TIR0xx code and the source position of the offending
// declaration, so a single run of tytravet reports the whole state of a
// design.
//
// Check makes one pass over each function body, then one walk of the
// call hierarchy. Its tables are sized from the module and built once,
// and it allocates nothing per instruction or per call site.
func (m *Module) Check() diag.List {
	c := newChecker(m)
	c.check()
	c.l.Sort()
	return c.l
}

// Validate reports the first-error view of Check, preserving the plain
// error API: nil when the module is legal (warnings do not count).
func (m *Module) Validate() error {
	return m.Check().ErrOrNil()
}

// checker carries one Check or Analyze run. Its name tables are built
// once per run, sized from the module; Analyze's deep passes resolve
// names through the same tables.
type checker struct {
	m *Module
	l diag.List
	// Declarations by name. The first of duplicates wins, as in the
	// Module lookups; the duplicates themselves are errors.
	mems    map[string]*MemObject
	streams map[string]*StreamObject
	ports   map[string]*Port
	fns     map[string]*Function
	// locals holds the parameters and SSA definitions of the body being
	// checked. Every body shares it: an entry belongs to the body whose
	// tag it carries, so no body has to clear it.
	locals map[string]local
	// Per-call-site scratch of checkPipeCallSite, reused by every site.
	bound []boundArg
	roots map[string]streamRef
}

// local is a name visible in one function body.
type local struct {
	tag   int32 // the body that defined the name: 1 + its index in m.Funcs
	param bool  // a parameter, rather than an SSA definition
	bound bool  // an out instruction already drives the parameter
}

func newChecker(m *Module) *checker {
	names := 0
	for _, f := range m.Funcs {
		names += len(f.Params) + len(f.Body)
	}
	return &checker{
		m:       m,
		mems:    make(map[string]*MemObject, len(m.MemObjects)),
		streams: make(map[string]*StreamObject, len(m.Streams)),
		ports:   make(map[string]*Port, len(m.Ports)),
		fns:     make(map[string]*Function, len(m.Funcs)),
		locals:  make(map[string]local, names),
	}
}

func (c *checker) check() {
	m := c.m
	main := m.Main()
	modPos := diag.Pos{File: m.Name}
	if len(m.Funcs) == 0 {
		c.l.Errorf(CodeNoFunctions, modPos, "module %s has no functions", m.Name)
	} else if main == nil {
		c.l.Errorf(CodeNoMain, modPos, "module %s has no @main entry function", m.Name)
	}

	// Manage-IR linkage.
	for _, mo := range m.MemObjects {
		if _, dup := c.mems[mo.Name]; dup {
			c.l.Errorf(CodeDupMem, mo.At, "duplicate memory object %%%s", mo.Name)
		} else {
			c.mems[mo.Name] = mo
		}
		if mo.Size <= 0 {
			c.l.Errorf(CodeMemSize, mo.At, "memory object %%%s has non-positive size %d", mo.Name, mo.Size)
		}
		if !mo.Elem.Valid() {
			c.l.Errorf(CodeBadType, mo.At, "memory object %%%s has invalid element type", mo.Name)
		}
		if mo.Pattern == PatternStrided && mo.Stride <= 0 {
			c.l.Errorf(CodeBadStride, mo.At, "strided memory object %%%s needs a positive stride", mo.Name)
		}
	}
	for _, so := range m.Streams {
		if _, dup := c.streams[so.Name]; dup {
			c.l.Errorf(CodeDupStream, so.At, "duplicate stream object %%%s", so.Name)
			continue
		}
		c.streams[so.Name] = so
		if _, ok := c.mems[so.Mem]; !ok {
			c.l.Errorf(CodeUnknownMem, so.At, "stream object %%%s references unknown memory object %%%s", so.Name, so.Mem)
		}
	}
	for _, p := range m.Ports {
		if _, dup := c.ports[p.Name]; dup {
			c.l.Errorf(CodeDupPort, p.At, "duplicate port @%s", p.Name)
		} else {
			c.ports[p.Name] = p
		}
		if !p.Elem.Valid() {
			c.l.Errorf(CodeBadType, p.At, "port @%s has invalid element type", p.Name)
		}
		if so, ok := c.streams[p.Stream]; !ok {
			c.l.Errorf(CodeUnknownStr, p.At, "port @%s references unknown stream object %q", p.Name, p.Stream)
		} else if so.Dir != p.Dir {
			c.l.Errorf(CodeDirMismatch, p.At, "port @%s direction %s disagrees with stream %%%s direction %s",
				p.Name, p.Dir, so.Name, so.Dir)
		}
		if p.Pattern == PatternStrided && p.Stride <= 0 {
			c.l.Errorf(CodeBadStride, p.At, "strided port @%s needs a positive stride", p.Name)
		}
	}

	// Function-level checks. First definition wins on duplicates so that
	// body checks still run against a consistent table.
	linked := main != nil
	for _, f := range m.Funcs {
		if _, dup := c.fns[f.Name]; dup {
			c.l.Errorf(CodeDupFunc, f.At, "duplicate function @%s", f.Name)
			linked = false
			continue
		}
		c.fns[f.Name] = f
	}
	for i, f := range m.Funcs {
		if !c.checkBody(int32(i+1), f) {
			linked = false
		}
	}

	// Acyclic call hierarchy reachable from main, and its configuration
	// legality per Fig 7. The composition is judged only on sound
	// linkage.
	if main != nil {
		w := callWalk{c: c, chain: make([]string, 0, len(c.fns))}
		w.visit(main, make(map[*Function]uint8, len(c.fns)))
		if linked && !w.recursive && w.parErr != nil {
			c.l.Add(diag.AsList(w.parErr, CodeParStructure)...)
		}
	}
}

// callWalk is one depth-first walk of the call hierarchy from @main. It
// visits each function once, reports every call cycle it closes
// (TIR035), and keeps the first par-structure error in post-order:
// after a function's callees, in call order. Unknown callees were
// already reported per call site; the walk skips them.
type callWalk struct {
	c         *checker
	chain     []string // the calls that reached the function being visited
	recursive bool
	parErr    error
}

// visit walks the hierarchy under f; state records each function's
// progress: 0 unvisited, 1 in progress, 2 done.
func (w *callWalk) visit(f *Function, state map[*Function]uint8) {
	switch state[f] {
	case 1:
		w.recursive = true
		w.c.l.Errorf(CodeRecursion, f.At,
			"recursive call cycle: %s -> %s", strings.Join(w.chain, " -> "), f.Name)
		return
	case 2:
		return
	}
	state[f] = 1
	w.chain = append(w.chain, f.Name)
	for _, in := range f.Body {
		if call, ok := in.(*CallInstr); ok {
			if callee, known := w.c.fns[call.Callee]; known {
				w.visit(callee, state)
			}
		}
	}
	w.chain = w.chain[:len(w.chain)-1]
	state[f] = 2
	if f.Mode == ModePar && w.parErr == nil {
		w.parErr = parLanes(f)
	}
}

// checkBody checks SSA discipline and operand visibility inside one
// function, and the structure its mode demands, in one pass over the
// body; tag identifies the body's entries in c.locals. Visible names are
// the function parameters and prior definitions; global accumulators
// (@x) are visible everywhere and may be read and re-accumulated but not
// used as plain locals. It reports whether every callee resolves.
func (c *checker) checkBody(tag int32, f *Function) (linked bool) {
	l := &c.l
	for _, p := range f.Params {
		if !p.Ty.Valid() {
			l.Errorf(CodeBadType, p.At, "@%s: parameter %%%s has invalid type", f.Name, p.Name)
		}
		if e, ok := c.locals[p.Name]; ok && e.tag == tag {
			l.Errorf(CodeDupParam, p.At, "@%s: duplicate parameter %%%s", f.Name, p.Name)
		}
		c.locals[p.Name] = local{tag: tag, param: true}
	}
	define := func(at diag.Pos, name string) {
		if name == "" {
			return
		}
		if e, ok := c.locals[name]; ok && e.tag == tag {
			l.Errorf(CodeSSA, at, "@%s: SSA violation: %%%s assigned twice", f.Name, name)
			return
		}
		c.locals[name] = local{tag: tag}
	}
	use := func(at diag.Pos, o Operand) {
		// Globals are module-level accumulators and immediates are
		// constants: both are always visible.
		if o.Kind != OpReg {
			return
		}
		if e, ok := c.locals[o.Name]; !ok || e.tag != tag {
			l.Errorf(CodeUndefined, at, "@%s: use of undefined value %%%s", f.Name, o.Name)
		}
	}

	linked = true
	hasDatapath, combCalls := false, false
	for _, in := range f.Body {
		at := in.Pos()
		switch it := in.(type) {
		case *CallInstr:
			// Mode-specific structure (Fig 7 configurations).
			switch f.Mode {
			case ModePar:
				if it.Mode != ModePipe {
					l.Errorf(CodeParStructure, at, "@%s: par functions replicate pipe children, found %s", f.Name, it.Mode)
				}
			case ModeComb:
				if !combCalls {
					l.Errorf(CodeCombStructure, at, "@%s: comb functions must be pure datapath (no calls)", f.Name)
				}
				combCalls = true
			}
			callee, ok := c.fns[it.Callee]
			if !ok {
				l.Errorf(CodeUnknownCallee, at, "@%s calls unknown function @%s", f.Name, it.Callee)
				linked = false
				continue
			}
			if len(it.Args) != len(callee.Params) {
				l.Errorf(CodeArity, at, "@%s: call @%s with %d args, want %d",
					f.Name, it.Callee, len(it.Args), len(callee.Params))
				continue
			}
			if it.Mode != callee.Mode {
				l.Errorf(CodeCallMode, at, "@%s: call @%s with mode %s, function is %s",
					f.Name, it.Callee, it.Mode, callee.Mode)
			}
			// A comb child is a custom combinatorial block inlined in the
			// parent datapath (Fig 7 configuration 1, Fig 8): arguments
			// that the child binds with `out` are wires the call DEFINES
			// in the parent; the rest are read. All other call modes wire
			// top-level ports (globals), which are always visible.
			if it.Mode == ModeComb {
				for k, a := range it.Args {
					out := callee.drives(callee.Params[k].Name)
					switch {
					case a.Kind == OpImm && out:
						l.Errorf(CodeCombDrivesImm, at, "@%s: call @%s drives an immediate operand", f.Name, it.Callee)
					case a.Kind != OpReg:
					case out:
						define(at, a.Name)
					default:
						use(at, a)
					}
				}
			}
		case *OffsetInstr:
			hasDatapath = true
			if f.Mode == ModeComb {
				l.Errorf(CodeCombStructure, at, "@%s: comb functions must be pure datapath (no stream offsets)", f.Name)
			}
			use(at, it.Src)
			if it.Src.Kind == OpImm {
				l.Errorf(CodeBadOffset, at, "@%s: offset source must be a stream value", f.Name)
			}
			if it.Offset == 0 {
				l.Errorf(CodeBadOffset, at, "@%s: offset of 0 is meaningless for %%%s", f.Name, it.Dst)
			}
			define(at, it.Dst)
		case *ConstInstr:
			hasDatapath = true
			define(at, it.Dst)
		case *BinInstr:
			hasDatapath = true
			use(at, it.A)
			use(at, it.B)
			if it.Op.Info().Float != it.Ty.IsFloat() {
				l.Errorf(CodeOpcodeType, at, "@%s: opcode %s applied to type %s", f.Name, it.Op, it.Ty)
			}
			if it.GlobalDst {
				// Reduction idiom: destination accumulator must also be
				// read by the instruction.
				reads := it.A.Kind == OpGlobal && it.A.Name == it.Dst ||
					it.B.Kind == OpGlobal && it.B.Name == it.Dst
				if !reads {
					l.Errorf(CodeAccNoRead, at, "@%s: global @%s written without accumulation", f.Name, it.Dst)
				}
			} else {
				define(at, it.Dst)
			}
		case *UnInstr:
			hasDatapath = true
			use(at, it.A)
			if it.Op.Info().Float != it.Ty.IsFloat() {
				l.Errorf(CodeOpcodeType, at, "@%s: opcode %s applied to type %s", f.Name, it.Op, it.Ty)
			}
			define(at, it.Dst)
		case *CmpInstr:
			hasDatapath = true
			use(at, it.A)
			use(at, it.B)
			define(at, it.Dst)
		case *SelectInstr:
			hasDatapath = true
			use(at, it.Cond)
			use(at, it.A)
			use(at, it.B)
			define(at, it.Dst)
		case *OutInstr:
			hasDatapath = true
			use(at, it.Val)
			e, ok := c.locals[it.Port]
			if !ok || e.tag != tag || !e.param {
				l.Errorf(CodeBadOut, at, "@%s: out to %%%s which is not a parameter", f.Name, it.Port)
				continue
			}
			// A duplicated parameter is typed by its last declaration.
			var pty Type
			for _, p := range f.Params {
				if p.Name == it.Port {
					pty = p.Ty
				}
			}
			if pty != it.Ty {
				l.Errorf(CodeBadOut, at, "@%s: out to %%%s with type %s, parameter is %s",
					f.Name, it.Port, it.Ty, pty)
			}
			if e.bound {
				l.Errorf(CodeBadOut, at, "@%s: output port %%%s bound twice", f.Name, it.Port)
			}
			e.bound = true
			c.locals[it.Port] = e
		default:
			for _, u := range in.Uses() {
				use(at, u)
			}
			l.Errorf(CodeUnknownInstr, at, "@%s: unknown instruction %T", f.Name, in)
		}
	}
	if f.Mode == ModePar && hasDatapath {
		l.Errorf(CodeParStructure, f.At, "@%s: par functions may only contain calls", f.Name)
	}
	return linked
}

// Config classifies whole-design configurations following Fig 7.
type Config int

const (
	// ConfigPipe is configuration 1: a single pipeline, possibly with
	// comb sub-blocks.
	ConfigPipe Config = iota + 1
	// ConfigParPipes is configuration 2: data-parallel pipeline lanes.
	ConfigParPipes
	// ConfigCoarsePipe is configuration 3: a coarse-grained pipeline of
	// peer pipe kernels.
	ConfigCoarsePipe
	// ConfigParCoarse is configuration 4: data-parallel coarse-grained
	// pipelines.
	ConfigParCoarse
	// ConfigSeq is a host-sequenced composition of the above.
	ConfigSeq
)

// String names the configuration as in Fig 7.
func (c Config) String() string {
	switch c {
	case ConfigPipe:
		return "C1:pipeline"
	case ConfigParPipes:
		return "C2:data-parallel-pipelines"
	case ConfigCoarsePipe:
		return "C3:coarse-grained-pipeline"
	case ConfigParCoarse:
		return "C4:data-parallel-coarse-pipelines"
	case ConfigSeq:
		return "C0:sequenced"
	}
	return "C?:unknown"
}

// parLanes checks the Fig 7 shape of the par function f: its calls are
// its lanes, and there is at least one, all replicating one kernel.
func parLanes(f *Function) error {
	var first *CallInstr
	for _, in := range f.Body {
		c, ok := in.(*CallInstr)
		switch {
		case !ok:
		case first == nil:
			first = c
		case c.Callee != first.Callee:
			return diag.New(diag.Error, CodeParStructure, f.At,
				"@%s: par lanes must replicate one kernel (found @%s and @%s)", f.Name, first.Callee, c.Callee)
		}
	}
	if first == nil {
		return diag.New(diag.Error, CodeParStructure, f.At, "@%s: par function with no lanes", f.Name)
	}
	return nil
}
