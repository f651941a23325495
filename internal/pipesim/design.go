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
// immutable after compilation — the per-call-site programs, the
// per-function op/bop bodies they bind to streams, and the order the
// design's PE invocations run in — and is safe to share between any
// number of goroutines. All mutable execution state (register and
// batch-lane scratch, bound stream arrays, accumulator slabs, the
// per-run memory map) lives in an Instance. A caller that runs one
// design many times holds one Instance, whose Run then allocates little
// beyond the Result it hands back.

// CompiledDesign is the immutable compiled form of one design variant.
// It carries no execution scratch; any number of Instances (and
// therefore goroutines) can execute it concurrently. Compile once,
// run everywhere.
type CompiledDesign struct {
	m *tir.Module
	// progs are the compiled programs, one per PE call site, in slot
	// order: progs[i].idx is i.
	progs []*program
	// invocations are the PE invocations of one kernel-instance in the
	// order Run executes them, one per instance of a call site.
	invocations []*program
	// cycles and items are one kernel-instance's cost, summed once at
	// compile time by the design's walk; every successful Run reports
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
// TIR045 warning) — is what Timing and Run report. The returned design
// is immutable and safe for concurrent use.
func Compile(d *elab.Design) (*CompiledDesign, error) { return compile(d, Config{}) }

// Config selects the executor a design compiles with. The zero value
// batches every program the compiler proves batch-safe, which is what
// Compile uses; DisableBatch exists for differential testing and
// benchmarking of the scalar fallback (the tests' -pipesim.scalar flag
// replays the suite on it). Both executors are bit-identical by
// construction — the knob trades speed, never semantics.
type Config struct {
	// DisableBatch keeps every program on the scalar per-item loop.
	DisableBatch bool
}

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
	// Every PE invocation is an instance, and CheckBound has capped the
	// instances, so the walk never grows these.
	n := int(ed.Instances())
	d := &CompiledDesign{
		m:           ed.Module(),
		progs:       make([]*program, 0, n),
		invocations: make([]*program, 0, n),
	}
	w := &walker{
		d: d, cfg: cfg,
		sites:   make(map[*tir.CallInstr]*program, n),
		bodies:  map[*tir.Function][]*body{},
		present: hostInputs(d.m),
	}
	d.cycles, d.items = w.call(nil, ed.Root())
	d.compileErr, d.timingErr = w.compileErr, w.bindErr
	if d.compileErr != nil {
		d.timingErr = d.compileErr
	}
	return d, nil
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
// provider, an object written twice, or a datapath the executor cannot
// run (the TIR045 warning). Every call structure Elaborate accepts
// executes.
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

// walker is the design's one walk over its instances, in execution
// order. At each PE invocation it compiles the call site's program the
// first time the site is reached, appends the invocation to the list
// Instance.Run executes, sums the one cycle formula, and replays
// bindPE's checks statically against the objects present so far. A
// body the executor cannot run stops the walk. A bind failure does not
// stop the sum: a caller's own inputs may bind where host inputs do
// not.
type walker struct {
	d   *CompiledDesign
	cfg Config
	// sites holds each compiled call site's program; bodies holds each
	// pipe function's compiled bodies, one per assignment of stream
	// directions its call sites use.
	sites      map[*tir.CallInstr]*program
	bodies     map[*tir.Function][]*body
	present    map[string]bool // memory objects with contents so far
	bindErr    error           // first bind failure on host inputs
	compileErr error           // the body that stopped the walk
}

// call walks the instance reached through one call site, or the root
// (site nil). A seq node, which only the root can be, runs its
// children in turn and sums them. A par node runs its lanes in lane
// order, as the oracle does (a lane that consumes another lane's
// output sees the completed stream), and takes its slowest lane. A
// pipe node costs its own PE (or ctrlStartup for a purely structural
// parent) and chains its coarse children: their fills add, the item
// stream already flowing through the chain overlaps.
func (w *walker) call(site *tir.CallInstr, n *elab.Node) (cycles, items int64) {
	if w.compileErr != nil {
		return 0, 0
	}
	switch n.Func.Mode {
	case tir.ModeSeq:
		for _, c := range n.Calls {
			cy, it := w.call(c.Site, c.Callee)
			cycles += cy
			items += it
		}
		return cycles, items
	case tir.ModePar:
		var worst int64
		for _, c := range n.Calls {
			cy, it := w.call(c.Site, c.Callee)
			worst = max(worst, cy)
			items += it
		}
		return worst + ctrlStartup, items
	}
	cycles = ctrlStartup
	if len(n.Func.Params) > 0 {
		p := w.program(site, n)
		if p == nil {
			return 0, 0
		}
		w.d.invocations = append(w.d.invocations, p)
		w.bind(p)
		cycles, items = p.fill+p.items+ctrlStartup, p.items
	}
	for _, c := range n.Calls {
		if c.Callee.Func.Mode == tir.ModeComb {
			continue // inlined in the parent program
		}
		cy, it := w.call(c.Site, c.Callee)
		cycles += cy - min(it, items, cy)
		items = max(items, it)
	}
	return cycles, items
}

// program returns the program of the call site of the pipe node n,
// compiling it, in the next progState slot, the first time the walk
// reaches the site: it binds the site's streams, then attaches the body
// an earlier site of the function with the same stream directions
// compiled, or compiles that body now. It returns nil, with compileErr
// set, on a body the executor cannot run.
func (w *walker) program(site *tir.CallInstr, n *elab.Node) *program {
	if p := w.sites[site]; p != nil {
		return p
	}
	fn := n.Func
	p, dirs := bindCall(w.d.m, site, fn)
	i := slices.IndexFunc(w.bodies[fn], func(b *body) bool { return slices.Equal(b.dirs, dirs) })
	if i < 0 {
		b, err := compileBody(w.d.m, fn, n.Sched.Depth, dirs, w.cfg)
		if err != nil {
			w.compileErr = err
			return nil
		}
		i = len(w.bodies[fn])
		w.bodies[fn] = append(w.bodies[fn], b)
	}
	// The interior follows from the body's window loads and the site's
	// stream sizes; the site runs the batched form unless its streams
	// alias.
	p.body = w.bodies[fn][i]
	p.computeInterior()
	p.batched = p.bops != nil && !p.selfAliasedStreams()
	p.idx = len(w.d.progs)
	w.d.progs = append(w.d.progs, p)
	w.sites[site] = p
	return p
}

// bind is bindPE without data: the same checks, in call-argument
// order, against the objects present so far. Only the first failure
// counts, since Run stops there.
func (w *walker) bind(p *program) {
	for _, step := range p.binds {
		if w.bindErr != nil {
			return
		}
		if step.out {
			mem := p.outs[step.idx].mem
			if w.present[mem] {
				w.bindErr = errWrittenTwice(mem)
			}
			w.present[mem] = true
		} else if mem := p.ins[step.idx].mem; !w.present[mem] {
			w.bindErr = errNoContents(mem)
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

// BatchedPrograms reports how many of the compiled programs (one per
// PE call site) run on the batched executor; the rest fall back to the
// scalar loop (self-aliased streams, order-dependent accumulator use,
// or DisableBatch).
func (d *CompiledDesign) BatchedPrograms() (batched, total int) {
	for _, p := range d.progs {
		if p.batched {
			batched++
		}
	}
	return batched, len(d.progs)
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
	inst := &Instance{d: d, st: make([]progState, len(d.progs))}
	for i, p := range d.progs {
		inst.st[i].init(p)
	}
	return inst
}

// Run executes one kernel-instance on a fresh Instance: the convenience
// for callers that hold only the shared design and run it once.
func (d *CompiledDesign) Run(mem map[string][]int64) (*Result, error) {
	return d.NewInstance().Run(mem)
}

// RunIterations executes nki kernel-instances with the given feedback
// wiring on one fresh Instance, reused across the sweeps, reproducing a
// form-B execution: host data is bound once, and between instances
// each feedback target input is replaced by the corresponding output
// of the previous instance.
func (d *CompiledDesign) RunIterations(mem map[string][]int64, nki int64, fb Feedback) (*IterationResult, error) {
	return d.NewInstance().RunIterations(mem, nki, fb)
}

// runState is the per-Run mutable state: memory-object contents and
// module-level accumulators.
type runState struct {
	mem map[string][]int64
	acc map[string]int64
}

// Run executes one kernel-instance: it binds and executes the design's
// PE invocations in the order its compile walk recorded. mem must
// provide an array of exactly the declared size for every memory
// object that feeds an input stream not produced by another processing
// element.
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
	for _, p := range d.invocations {
		if err := inst.execPE(st, p); err != nil {
			return nil, err
		}
	}
	return &Result{Mem: st.mem, Acc: st.acc, Cycles: d.cycles, Items: d.items}, nil
}

// RunIterations is the Instance-backed iteration driver: the feedback
// loop pays compilation, validation and scheduling exactly once, which
// is what makes per-sweep cost approach the pure streaming cycles.
func (inst *Instance) RunIterations(mem map[string][]int64, nki int64, fb Feedback) (*IterationResult, error) {
	return runIterations(inst.d.m, inst.Run, mem, nki, fb)
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
