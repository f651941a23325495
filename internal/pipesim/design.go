package pipesim

import (
	"fmt"
	"slices"

	"repro/internal/elab"
	"repro/internal/tir"
)

// This file is the share-everything half of the simulator, split along
// the wazero seam (CompileModule → shareable CompiledModule → cheap
// per-call instance): a CompiledDesign holds everything that is
// immutable after compilation — the elaborated design, the
// per-function op/bop bodies and the per-call-site programs that bind
// them to streams — and is safe to share between any number of
// goroutines. All mutable execution state (register and batch-lane
// scratch, bound stream arrays, accumulator slabs, the per-run memory
// map) lives in an Instance. A caller that runs one design many times
// holds one Instance, whose Run then allocates little beyond the Result
// it hands back.

// CompiledDesign is the immutable compiled form of one design variant.
// It carries no execution scratch; any number of Instances (and
// therefore goroutines) can execute it concurrently. Compile once,
// run everywhere.
type CompiledDesign struct {
	m     *tir.Module
	root  *elab.Node
	progs map[*tir.CallInstr]*program
	// bodies holds each pipe function's compiled bodies, one per
	// assignment of stream directions its call sites use.
	bodies map[*tir.Function][]*body
	nprogs int
	// cycles and items are one kernel-instance's cost, summed once at
	// compile time by the timer walk; every successful Run reports
	// them. timingErr is the first error Run fails with on host inputs
	// (see Timing); compileErr, the first datapath the executor cannot
	// run, fails every Run.
	cycles, items int64
	timingErr     error
	compileErr    error
}

// Compile compiles the elaborated design with the default executor
// (batched wherever the compiler proves it safe). A design with more
// than elab.MaxInstances instances is rejected (TIR060) before any
// instance is expanded; every other design compiles. A datapath the
// executor cannot run — an operation with no integer evaluation (the
// TIR045 warning), a stream operation inside a comb block, an out to a
// parameter bound to an input stream — is what Timing and Run report.
// The returned design is immutable and safe for concurrent use.
func Compile(d *elab.Design) (*CompiledDesign, error) { return compile(d, defaultConfig) }

// CompileConfig elaborates the module and compiles it with an explicit
// executor configuration: a rejected module reports every positioned
// TIR0xx diagnostic, the same output tytravet prints.
func CompileConfig(m *tir.Module, cfg Config) (*CompiledDesign, error) {
	d, err := elab.Elaborate(m)
	if err != nil {
		return nil, err
	}
	return compile(d, cfg)
}

func compile(ed *elab.Design, cfg Config) (*CompiledDesign, error) {
	if err := ed.CheckBound(); err != nil {
		return nil, err
	}
	d := &CompiledDesign{
		m:      ed.Module(),
		root:   ed.Root(),
		progs:  map[*tir.CallInstr]*program{},
		bodies: map[*tir.Function][]*body{},
	}
	if d.compileErr = d.compileCalls(d.root, cfg); d.compileErr != nil {
		d.timingErr = d.compileErr
		return d, nil
	}
	t := &timer{d: d, present: hostInputs(d.m)}
	d.cycles, d.items, d.timingErr = t.node(d.root)
	if t.bindErr != nil {
		d.timingErr = t.bindErr
	}
	return d, nil
}

// compileCalls compiles every PE call site under n, in call order,
// assigning each program its progState slot; a site reached again
// through another call path keeps its program. Comb children are
// inlined by their parent's compilation, not compiled as PEs.
func (d *CompiledDesign) compileCalls(n *elab.Node, cfg Config) error {
	for _, c := range n.Calls {
		child := c.Callee.Func
		if child.Mode == tir.ModeComb || d.progs[c.Site] != nil {
			continue
		}
		if child.Mode == tir.ModePipe && len(child.Params) > 0 {
			p, err := d.compileCall(c, cfg)
			if err != nil {
				return err
			}
			p.idx = d.nprogs
			d.nprogs++
			d.progs[c.Site] = p
		}
		if err := d.compileCalls(c.Callee, cfg); err != nil {
			return err
		}
	}
	return nil
}

// compileCall compiles the call site of a pipe function: it binds the
// site's streams, then attaches the body an earlier site of the
// function with the same stream directions compiled, or compiles that
// body now. A design fails with its first body error in call order.
func (d *CompiledDesign) compileCall(c elab.Call, cfg Config) (*program, error) {
	fn := c.Callee.Func
	p, dirs := bindCall(d.m, c.Site, fn)
	i := slices.IndexFunc(d.bodies[fn], func(b *body) bool { return slices.Equal(b.dirs, dirs) })
	if i < 0 {
		b, err := compileBody(d.m, fn, c.Callee.Sched.Depth, dirs, cfg)
		if err != nil {
			return nil, err
		}
		i = len(d.bodies[fn])
		d.bodies[fn] = append(d.bodies[fn], b)
	}
	// The interior follows from the body's window loads and the site's
	// stream sizes; the site runs the batched form unless its streams
	// alias.
	p.body = d.bodies[fn][i]
	p.computeInterior()
	p.batched = p.bops != nil && !p.selfAliasedStreams()
	return p, nil
}

// Timing returns the cycles and work-items of one kernel-instance of
// the design: exactly what Run reports, computed from the compiled
// structure without executing any data. A PE invocation costs
// fill + items + ctrlStartup, a par node its slowest lane plus
// ctrlStartup, and a coarse pipe adds each child's cycles minus the
// item stream they overlap. Pipesim timing never depends on data;
// TestDifferentialTimingMatchesOracle is the test that must fail first
// if that ever changes.
//
// Timing fails exactly where Run fails on host inputs — every
// input-stream object that no output port produces, the workload
// dse.SimInputs generates — with Run's error: an input object with no
// provider, an object written twice, a structural error in the call
// hierarchy, or a datapath the executor cannot run.
func (d *CompiledDesign) Timing() (cycles, items int64, err error) {
	if d.timingErr != nil {
		return 0, 0, d.timingErr
	}
	return d.cycles, d.items, nil
}

// hostInputs returns the memory objects the host supplies: the object
// of every input stream that no output port produces.
func hostInputs(m *tir.Module) map[string]bool {
	produced := map[string]bool{}
	for _, port := range m.Ports {
		if so := m.Stream(port.Stream); so != nil && port.Dir == tir.DirOut {
			produced[so.Mem] = true
		}
	}
	host := map[string]bool{}
	for _, port := range m.Ports {
		if so := m.Stream(port.Stream); so != nil && port.Dir == tir.DirIn && !produced[so.Mem] {
			host[so.Mem] = true
		}
	}
	return host
}

// timer is the compiled executor's one cycle-summing walk: it expands
// the design's instances in Run's order and replays bindPE's checks
// statically against the objects present so far. A bind failure does
// not stop the sum — a caller's own inputs may bind where host inputs
// do not — but a structural error does, exactly as it stops Run.
type timer struct {
	d       *CompiledDesign
	present map[string]bool // memory objects with contents so far
	bindErr error           // first bind failure on host inputs
}

// node mirrors Instance.runNode: a sequential root sums its children.
func (t *timer) node(n *elab.Node) (cycles, items int64, err error) {
	if n.Func.Mode != tir.ModeSeq {
		return t.call(nil, n)
	}
	for _, c := range n.Calls {
		cy, it, err := t.call(c.Site, c.Callee)
		if err != nil {
			return 0, 0, err
		}
		cycles += cy
		items += it
	}
	return cycles, items, nil
}

// call mirrors Instance.runCall: a par node takes its slowest lane, a
// pipe node costs its own PE (or ctrlStartup for a purely structural
// parent) and chains its coarse children — their fills add, the item
// stream already flowing through the chain overlaps.
func (t *timer) call(call *tir.CallInstr, n *elab.Node) (cycles, items int64, err error) {
	if err := shapeErr(call, n); err != nil {
		return 0, 0, err
	}
	if n.Func.Mode == tir.ModePar {
		var worst int64
		for _, c := range n.Calls {
			cy, it, err := t.call(c.Site, c.Callee)
			if err != nil {
				return 0, 0, err
			}
			worst = max(worst, cy)
			items += it
		}
		return worst + ctrlStartup, items, nil
	}
	cycles = ctrlStartup
	if len(n.Func.Params) > 0 {
		p := t.d.progs[call]
		t.bind(p)
		cycles, items = p.fill+p.items+ctrlStartup, p.items
	}
	for _, c := range n.Calls {
		if c.Callee.Func.Mode == tir.ModeComb {
			continue // inlined in the parent program
		}
		cy, it, err := t.call(c.Site, c.Callee)
		if err != nil {
			return 0, 0, err
		}
		cycles += cy - min(it, items, cy)
		items = max(items, it)
	}
	return cycles, items, nil
}

// bind is bindPE without data: the same checks, in call-argument
// order, against the objects present so far. Only the first failure
// counts, since Run stops there.
func (t *timer) bind(p *program) {
	for _, step := range p.binds {
		if t.bindErr != nil {
			return
		}
		if step.out {
			mem := p.outs[step.idx].mem
			if t.present[mem] {
				t.bindErr = errWrittenTwice(mem)
			}
			t.present[mem] = true
		} else if mem := p.ins[step.idx].mem; !t.present[mem] {
			t.bindErr = errNoContents(mem)
		}
	}
}

// errWrittenTwice and errNoContents are the two ways a bind fails.
func errWrittenTwice(mem string) error {
	return fmt.Errorf("pipesim: memory object %%%s written twice", mem)
}

func errNoContents(mem string) error {
	return fmt.Errorf("pipesim: input memory object %%%s has no contents (missing input or producer)", mem)
}

// shapeErr returns the structural error Run fails with on reaching n
// through call, or nil: a root pipe, a pipe with neither streams nor
// stages, a comb block used as a PE, or a nested seq node.
func shapeErr(call *tir.CallInstr, n *elab.Node) error {
	switch n.Func.Mode {
	case tir.ModePar:
		return nil
	case tir.ModePipe:
		if call == nil {
			return fmt.Errorf("pipesim: pipe function @%s must be invoked through a call site", n.Func.Name)
		}
		if len(n.Func.Params) == 0 && len(n.Calls) == 0 {
			return fmt.Errorf("pipesim: pipe function @%s has neither streams nor stages", n.Func.Name)
		}
		return nil
	case tir.ModeComb:
		return fmt.Errorf("pipesim: comb function @%s cannot be a processing element; inline it in a pipe", n.Func.Name)
	}
	return fmt.Errorf("pipesim: unsupported call mode %s", n.Func.Mode)
}

// BatchedPrograms reports how many of the compiled programs (one per
// PE call site) run on the batched executor; the rest fall back to the
// scalar loop (self-aliased streams, order-dependent accumulator use,
// or DisableBatch).
func (d *CompiledDesign) BatchedPrograms() (batched, total int) {
	for _, p := range d.progs {
		total++
		if p.batched {
			batched++
		}
	}
	return
}

// Instance owns all mutable state of one execution context over a
// CompiledDesign: per-program register/lane scratch and bound stream
// arrays. An Instance is NOT safe for concurrent use — one goroutine
// per Instance — but any number of Instances of the same design run
// concurrently.
type Instance struct {
	d  *CompiledDesign
	st []progState
}

// NewInstance allocates a fresh execution context for the design.
func (d *CompiledDesign) NewInstance() *Instance {
	inst := &Instance{d: d, st: make([]progState, d.nprogs)}
	for _, p := range d.progs {
		inst.st[p.idx].init(p)
	}
	return inst
}

// Run executes one kernel-instance on a fresh Instance: the convenience
// for callers that hold only the shared design and run it once.
func (d *CompiledDesign) Run(mem map[string][]int64) (*Result, error) {
	return d.NewInstance().Run(mem)
}

// RunIterations executes nki kernel-instances with feedback wiring on
// one fresh Instance, reused across the sweeps. See the package-level
// RunIterations for the contract.
func (d *CompiledDesign) RunIterations(mem map[string][]int64, nki int64, fb Feedback) (*IterationResult, error) {
	return d.NewInstance().RunIterations(mem, nki, fb)
}

// runState is the per-Run mutable state: memory-object contents and
// module-level accumulators.
type runState struct {
	mem map[string][]int64
	acc map[string]int64
}

// Run executes one kernel-instance. mem must provide an array of
// exactly the declared size for every memory object that feeds an
// input stream not produced by another processing element.
//
// Input arrays are NOT copied: the design never writes a
// caller-provided object (every design-written object is materialised
// fresh, and a caller-provided array for one is rejected as "written
// twice"), so Result.Mem aliases the caller's input arrays and owns
// fresh output arrays. Callers that mutate an input array after Run
// mutate their view of Result.Mem with it.
func (inst *Instance) Run(mem map[string][]int64) (*Result, error) {
	d := inst.d
	if d.compileErr != nil {
		return nil, d.compileErr
	}
	st := &runState{mem: make(map[string][]int64, len(mem)+len(d.progs)), acc: map[string]int64{}}
	for name, data := range mem {
		mo := d.m.MemObject(name)
		if mo == nil {
			return nil, fmt.Errorf("pipesim: no memory object %q in module", name)
		}
		if int64(len(data)) != mo.Size {
			return nil, fmt.Errorf("pipesim: memory object %q: got %d elements, declared %d",
				name, len(data), mo.Size)
		}
		st.mem[name] = data
	}
	if err := inst.runNode(st, d.root); err != nil {
		return nil, err
	}
	return &Result{Mem: st.mem, Acc: st.acc, Cycles: d.cycles, Items: d.items}, nil
}

// RunIterations is the Instance-backed iteration driver: the feedback
// loop pays compilation, validation and scheduling exactly once, which
// is what makes per-sweep cost approach the pure streaming cycles.
func (inst *Instance) RunIterations(mem map[string][]int64, nki int64, fb Feedback) (*IterationResult, error) {
	return runIterations(inst.d.m, inst.Run, mem, nki, fb)
}

// runNode executes the design's instances in the oracle's order:
// sequential nodes run their children in turn, parallel nodes their
// lanes, pipe nodes their datapath and then their coarse children. It
// counts no cycles — the design's timer walk did that once, at compile
// time.
func (inst *Instance) runNode(st *runState, n *elab.Node) error {
	if n.Func.Mode != tir.ModeSeq {
		return inst.runCall(st, nil, n)
	}
	for _, c := range n.Calls {
		if err := inst.runCall(st, c.Site, c.Callee); err != nil {
			return err
		}
	}
	return nil
}

// runCall executes the PE(s) reached through one call site. A par
// node runs its lanes in lane order, as the oracle does: a lane that
// consumes another lane's output sees the completed stream.
func (inst *Instance) runCall(st *runState, call *tir.CallInstr, n *elab.Node) error {
	if err := shapeErr(call, n); err != nil {
		return err
	}
	if n.Func.Mode == tir.ModePar {
		for _, c := range n.Calls {
			if err := inst.runCall(st, c.Site, c.Callee); err != nil {
				return err
			}
		}
		return nil
	}
	if len(n.Func.Params) > 0 {
		if err := inst.execPE(st, inst.d.progs[call]); err != nil {
			return err
		}
	}
	for _, c := range n.Calls {
		if c.Callee.Func.Mode == tir.ModeComb {
			continue // inlined in the parent program
		}
		if err := inst.runCall(st, c.Site, c.Callee); err != nil {
			return err
		}
	}
	return nil
}

// bindPE performs the dynamic half of port binding: input contents must
// exist, output objects are materialised exactly once. Arguments are
// replayed in call-arg declaration order, exactly like the oracle's
// bind — an output materialised by an earlier argument is visible to a
// later input argument of the same call. The resolved arrays land in
// the instance's per-program scratch in stream order. Only design-
// written objects get fresh arrays; input-only arrays stay the
// caller's (the "written twice" check below is what guarantees they
// are never written).
func (inst *Instance) bindPE(st *runState, p *program) error {
	ps := &inst.st[p.idx]
	for _, step := range p.binds {
		if step.out {
			sb := p.outs[step.idx]
			if _, ok := st.mem[sb.mem]; ok {
				return errWrittenTwice(sb.mem)
			}
			arr := make([]int64, sb.size)
			st.mem[sb.mem] = arr
			ps.outArrs[step.idx] = arr
			continue
		}
		sb := p.ins[step.idx]
		data, ok := st.mem[sb.mem]
		if !ok {
			return errNoContents(sb.mem)
		}
		ps.inArrs[step.idx] = data
	}
	return nil
}

// execPE binds and executes one PE invocation against the shared
// accumulator state.
func (inst *Instance) execPE(st *runState, p *program) error {
	if err := inst.bindPE(st, p); err != nil {
		return err
	}
	ps := &inst.st[p.idx]
	for i, a := range p.accs {
		ps.accVals[i] = st.acc[a.name]
	}
	p.exec(ps)
	for i, a := range p.accs {
		if a.written {
			st.acc[a.name] = ps.accVals[i]
		}
	}
	return nil
}
