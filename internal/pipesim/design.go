package pipesim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/tir"
)

// This file is the share-everything half of the simulator, split along
// the wazero seam (CompileModule → shareable CompiledModule → cheap
// per-call instance): a CompiledDesign holds everything that is
// immutable after compilation — the validated module, its configuration
// tree, the per-call-site op/bop programs, bind plans and fusion/batch
// metadata — and is safe to share between any number of goroutines. All
// mutable execution state (register and batch-lane scratch, bound
// stream arrays, accumulator slabs, the per-run memory map) lives in an
// Instance, which is cheap to create and pooled via Acquire/Release so
// steady-state Instance.Run does near-zero allocation beyond the Result
// it hands back.

// CompiledDesign is the immutable compiled form of one design variant.
// It carries no execution scratch; any number of Instances (and
// therefore goroutines) can execute it concurrently. Compile once,
// run everywhere.
type CompiledDesign struct {
	m      *tir.Module
	tree   *tir.ConfigNode
	cfg    Config
	progs  map[*tir.CallInstr]*program
	calls  map[*tir.ConfigNode][]*tir.CallInstr // per-node call sites, resolved once
	nprogs int
	// workers is the default par-lane goroutine bound instances start
	// with: GOMAXPROCS at compile time. RunOptions overrides it per run.
	workers int
	pool    sync.Pool // of *Instance
}

// Compile validates and compiles the module at the default executor
// escalation (fusion + batching). The returned design is immutable and
// safe for concurrent use.
func Compile(m *tir.Module) (*CompiledDesign, error) { return CompileConfig(m, defaultConfig) }

// CompileConfig validates and compiles the module at an explicit
// executor escalation level. Validation runs the full static analysis
// (tir.Analyze), so a rejected module reports every positioned TIR0xx
// diagnostic — the same output tytravet prints — not just the first
// compile obstacle.
func CompileConfig(m *tir.Module, cfg Config) (*CompiledDesign, error) {
	if err := m.Analyze().ErrOrNil(); err != nil {
		return nil, err
	}
	tree, err := m.ConfigTree()
	if err != nil {
		return nil, err
	}
	d := &CompiledDesign{
		m:       m,
		tree:    tree,
		cfg:     cfg,
		progs:   map[*tir.CallInstr]*program{},
		calls:   map[*tir.ConfigNode][]*tir.CallInstr{},
		workers: runtime.GOMAXPROCS(0),
	}
	if err := d.compileTree(tree); err != nil {
		return nil, err
	}
	d.pool.New = func() any { return d.NewInstance() }
	return d, nil
}

// compileTree compiles every PE call site reachable in the
// configuration tree, assigning each program its progState slot. Comb
// children are inlined by their parent's compilation, not compiled as
// PEs.
func (d *CompiledDesign) compileTree(n *tir.ConfigNode) error {
	calls := n.Func.Calls()
	d.calls[n] = calls
	for i, child := range n.Children {
		if child.Mode == tir.ModeComb {
			continue
		}
		if child.Mode == tir.ModePipe && len(child.Func.Params) > 0 {
			p, err := compileCall(d.m, calls[i], child.Func, d.cfg)
			if err != nil {
				return err
			}
			p.idx = d.nprogs
			d.nprogs++
			d.progs[calls[i]] = p
		}
		if err := d.compileTree(child); err != nil {
			return err
		}
	}
	return nil
}

// Module returns the validated module the design was compiled from.
func (d *CompiledDesign) Module() *tir.Module { return d.m }

// Config returns the executor escalation level the design compiled at.
func (d *CompiledDesign) Config() Config { return d.cfg }

// FusionStats sums the superinstruction rewrites applied across every
// compiled program of the design.
func (d *CompiledDesign) FusionStats() FusionStats {
	var s FusionStats
	for _, p := range d.progs {
		s.add(p.fused)
	}
	return s
}

// BatchedPrograms reports how many of the compiled programs run on the
// batched executor; the rest fall back to the scalar loop (self-aliased
// streams, order-dependent accumulator use, or DisableBatch).
func (d *CompiledDesign) BatchedPrograms() (batched, total int) {
	for _, p := range d.progs {
		total++
		if p.bops != nil {
			batched++
		}
	}
	return
}

// Instance owns all mutable state of one execution context over a
// CompiledDesign: per-program register/lane scratch and bound stream
// arrays. An Instance is NOT safe for concurrent use — one goroutine
// per Instance — but any number of Instances of the same design run
// concurrently. (Within one Run, independent par lanes still execute
// concurrently: each lane is a distinct call site with its own
// progState.)
type Instance struct {
	d  *CompiledDesign
	st []progState
}

// NewInstance allocates a fresh execution context for the design. Use
// Acquire/Release instead when instances churn (one per request) so the
// scratch is recycled through the design's pool.
func (d *CompiledDesign) NewInstance() *Instance {
	inst := &Instance{d: d, st: make([]progState, d.nprogs)}
	for _, p := range d.progs {
		inst.st[p.idx].init(p)
	}
	return inst
}

// Acquire returns a pooled Instance of the design, creating one if the
// pool is empty. Pair with Release.
func (d *CompiledDesign) Acquire() *Instance { return d.pool.Get().(*Instance) }

// Release returns an instance to the design's pool. Bound-array
// references are dropped first so a pooled instance never retains a
// caller's result arrays.
func (d *CompiledDesign) Release(inst *Instance) {
	if inst == nil {
		return
	}
	if inst.d != d {
		panic("pipesim: Release of an Instance belonging to a different CompiledDesign")
	}
	for i := range inst.st {
		st := &inst.st[i]
		for k := range st.inArrs {
			st.inArrs[k] = nil
		}
		for k := range st.outArrs {
			st.outArrs[k] = nil
		}
	}
	d.pool.Put(inst)
}

// Run executes one kernel-instance on a pooled Instance: the
// acquire/run/release convenience for callers that hold only the
// shared design.
func (d *CompiledDesign) Run(mem map[string][]int64) (*Result, error) {
	inst := d.Acquire()
	defer d.Release(inst)
	return inst.Run(mem)
}

// RunIterations executes nki kernel-instances with feedback wiring on a
// pooled Instance. See the package-level RunIterations for the
// contract.
func (d *CompiledDesign) RunIterations(mem map[string][]int64, nki int64, fb Feedback) (*IterationResult, error) {
	inst := d.Acquire()
	defer d.Release(inst)
	return inst.RunIterations(mem, nki, fb)
}

// RunOptions carries per-execution knobs. The zero value selects the
// defaults.
type RunOptions struct {
	// Workers bounds the goroutine pool used for concurrent par lanes
	// of this execution. 0 selects the design default (GOMAXPROCS at
	// compile time); 1 forces the sequential lane loop. The
	// result is bit-identical at any bound — the knob exists for
	// resource control, not semantics.
	Workers int
}

// runState is the per-Run mutable state: memory-object contents and
// module-level accumulators.
type runState struct {
	mem map[string][]int64
	acc map[string]int64
}

// Run executes one kernel-instance with default options. mem must
// provide an array of exactly the declared size for every memory object
// that feeds an input stream not produced by another processing
// element.
//
// Input arrays are NOT copied: the design never writes a
// caller-provided object (every design-written object is materialised
// fresh, and a caller-provided array for one is rejected as "written
// twice"), so Result.Mem aliases the caller's input arrays and owns
// fresh output arrays. Callers that mutate an input array after Run
// mutate their view of Result.Mem with it.
func (inst *Instance) Run(mem map[string][]int64) (*Result, error) {
	return inst.RunWith(mem, RunOptions{})
}

// RunWith is Run with explicit per-execution options.
func (inst *Instance) RunWith(mem map[string][]int64, opts RunOptions) (*Result, error) {
	d := inst.d
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
	workers := opts.Workers
	if workers <= 0 {
		workers = d.workers
	}
	if workers < 1 {
		workers = 1
	}
	cycles, items, err := inst.runNode(st, d.tree, workers)
	if err != nil {
		return nil, err
	}
	return &Result{Mem: st.mem, Acc: st.acc, Cycles: cycles, Items: items}, nil
}

// RunIterations is the Instance-backed iteration driver: the feedback
// loop pays compilation, validation and scheduling exactly once, which
// is what makes per-sweep cost approach the pure streaming cycles.
func (inst *Instance) RunIterations(mem map[string][]int64, nki int64, fb Feedback) (*IterationResult, error) {
	return runIterations(inst.d.m, inst.Run, mem, nki, fb)
}

// runNode mirrors the oracle's configuration-tree walk on compiled
// programs: sequential nodes sum their children, parallel nodes take
// the slowest lane, pipe nodes execute their datapath and chain coarse
// children.
func (inst *Instance) runNode(st *runState, n *tir.ConfigNode, workers int) (cycles, items int64, err error) {
	switch n.Mode {
	case tir.ModeSeq:
		var total, all int64
		for i, c := range n.Children {
			call := inst.d.calls[n][i]
			cy, it, err := inst.runCall(st, call, c, workers)
			if err != nil {
				return 0, 0, err
			}
			total += cy
			all += it
		}
		return total, all, nil
	case tir.ModePar, tir.ModePipe, tir.ModeComb:
		return inst.runCall(st, nil, n, workers)
	}
	return 0, 0, fmt.Errorf("pipesim: unsupported root mode %s", n.Mode)
}

// runCall executes the PE(s) reached through one call site.
func (inst *Instance) runCall(st *runState, call *tir.CallInstr, n *tir.ConfigNode, workers int) (cycles, items int64, err error) {
	switch n.Mode {
	case tir.ModePar:
		return inst.runPar(st, n, workers)

	case tir.ModePipe:
		if call == nil {
			return 0, 0, fmt.Errorf("pipesim: pipe function @%s must be invoked through a call site", n.Func.Name)
		}
		var total int64
		if len(n.Func.Params) > 0 {
			cy, it, err := inst.execPE(st, inst.d.progs[call])
			if err != nil {
				return 0, 0, err
			}
			total, items = cy, it
		} else {
			if len(n.Func.Calls()) == 0 {
				return 0, 0, fmt.Errorf("pipesim: pipe function @%s has neither streams nor stages", n.Func.Name)
			}
			total = ctrlStartup
		}
		// Coarse-grained pipeline children: fills add, the in-flight
		// item stream overlaps.
		for i, c := range n.Children {
			if c.Mode == tir.ModeComb {
				continue // inlined in the parent program
			}
			childCall := inst.d.calls[n][i]
			cy, it, err := inst.runCall(st, childCall, c, workers)
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
	return 0, 0, fmt.Errorf("pipesim: unsupported call mode %s", n.Mode)
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
				return fmt.Errorf("pipesim: memory object %%%s written twice", sb.mem)
			}
			arr := make([]int64, sb.size)
			st.mem[sb.mem] = arr
			ps.outArrs[step.idx] = arr
			continue
		}
		sb := p.ins[step.idx]
		data, ok := st.mem[sb.mem]
		if !ok {
			return fmt.Errorf("pipesim: input memory object %%%s has no contents (missing input or producer)", sb.mem)
		}
		ps.inArrs[step.idx] = data
	}
	return nil
}

// execPE binds and executes one PE invocation against the shared
// accumulator state.
func (inst *Instance) execPE(st *runState, p *program) (int64, int64, error) {
	if err := inst.bindPE(st, p); err != nil {
		return 0, 0, err
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
	return p.fill + p.items + ctrlStartup, p.items, nil
}

// runPar executes the lanes of a par node. Lanes that are pure PEs with
// mergeable accumulators run concurrently on a bounded goroutine pool:
// binding happens up front single-threaded, each lane accumulates into
// a lane-local partial starting from the opcode's identity, and the
// partials merge into the shared state in lane order at commit — the
// bit-exact sequential result, by the commutativity/associativity
// AccIdentity certifies. Anything else (coarse-pipe lanes, structural
// lanes, order-dependent accumulator use) falls back to the oracle's
// sequential lane loop.
func (inst *Instance) runPar(st *runState, n *tir.ConfigNode, workers int) (int64, int64, error) {
	calls := inst.d.calls[n]

	parallel := workers > 1 && len(n.Children) > 1
	progs := make([]*program, len(n.Children))
	if parallel {
		for i, c := range n.Children {
			p := inst.d.progs[calls[i]]
			if c.Mode != tir.ModePipe || len(c.Func.Params) == 0 || hasPeerChild(c) ||
				p == nil || !p.parSafe {
				parallel = false
				break
			}
			progs[i] = p
		}
	}
	if parallel && lanesShareMemory(progs) {
		// A lane consuming another lane's output is order-dependent:
		// the oracle runs lanes in sequence, so the consumer sees the
		// producer's completed stream. Fall back to that order.
		parallel = false
	}

	if !parallel {
		var worst, all int64
		for i, c := range n.Children {
			cy, it, err := inst.runCall(st, calls[i], c, workers)
			if err != nil {
				return 0, 0, err
			}
			if cy > worst {
				worst = cy
			}
			all += it
		}
		return worst + ctrlStartup, all, nil
	}

	// Bind all lanes first: memory-map mutation stays single-threaded
	// and error order stays deterministic.
	for _, p := range progs {
		if err := inst.bindPE(st, p); err != nil {
			return 0, 0, err
		}
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, p := range progs {
		ps := &inst.st[p.idx]
		for k, a := range p.accs {
			ps.accVals[k] = a.identity
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(p *program, ps *progState) {
			defer wg.Done()
			p.exec(ps)
			<-sem
		}(p, ps)
	}
	wg.Wait()

	var worst, all int64
	for _, p := range progs {
		ps := &inst.st[p.idx]
		cy := p.fill + p.items + ctrlStartup
		if cy > worst {
			worst = cy
		}
		all += p.items
		for k, a := range p.accs {
			st.acc[a.name] = a.mergeOp(ps.accVals[k], st.acc[a.name])
		}
	}
	return worst + ctrlStartup, all, nil
}

// hasPeerChild reports whether the node chains coarse-grained peer PEs
// (anything beyond inlined comb blocks).
func hasPeerChild(n *tir.ConfigNode) bool {
	for _, c := range n.Children {
		if c.Mode != tir.ModeComb {
			return true
		}
	}
	return false
}

// lanesShareMemory reports whether any lane's input stream is another
// lane's output stream — a cross-lane data dependency that must run in
// lane order. (A lane wired to its own output is fine: the dependency
// stays inside one goroutine.)
func lanesShareMemory(progs []*program) bool {
	outOwner := map[string]int{}
	for i, p := range progs {
		for _, sb := range p.outs {
			outOwner[sb.mem] = i
		}
	}
	for i, p := range progs {
		for _, sb := range p.ins {
			if j, ok := outOwner[sb.mem]; ok && j != i {
				return true
			}
		}
	}
	return false
}

// designCacheBound caps the package-level design cache pipesim.Run and
// pipesim.RunIterations compile through: plenty for the handful of
// distinct modules a process sweeps in a hot loop, small enough that a
// fuzzing run churning thousands of one-shot modules stays bounded.
const designCacheBound = 32

// designKey is the content fingerprint of a (module, executor level)
// pair: SHA-256 over a length-prefixed encoding of the module's printed
// IR and the config. An earlier revision keyed the cache by *tir.Module
// pointer identity, which was wrong twice over: a freed module's
// address can be reused by a structurally different allocation (a stale
// design served for the wrong kernel), and two equal modules built
// independently never shared an entry. Content keying fixes both — and
// drops the old no-mutation-after-first-Run caveat, since a mutated
// module simply hashes to a different key.
func designKey(m *tir.Module, cfg Config) string {
	h := sha256.New()
	for _, part := range []string{m.String(), fmt.Sprintf("%+v", cfg)} {
		h.Write([]byte(strconv.Itoa(len(part))))
		h.Write([]byte{':'})
		h.Write([]byte(part))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// designCache memoises CompiledDesigns for the package-level one-shot
// entry points, keyed by module content and executor level, with LRU
// eviction at designCacheBound entries.
var designCache = struct {
	sync.Mutex
	entries map[string]*CompiledDesign
	order   []string // least recently used first
}{entries: map[string]*CompiledDesign{}}

// cachedDesign returns the memoised design for (m, cfg), compiling on
// miss. Hot callers that own a module should hold a CompiledDesign
// directly; this cache is what keeps the convenience entry points from
// recompiling per call.
func cachedDesign(m *tir.Module, cfg Config) (*CompiledDesign, error) {
	key := designKey(m, cfg)
	designCache.Lock()
	if d, ok := designCache.entries[key]; ok {
		for i, k := range designCache.order {
			if k == key {
				designCache.order = append(designCache.order[:i], designCache.order[i+1:]...)
				break
			}
		}
		designCache.order = append(designCache.order, key)
		designCache.Unlock()
		return d, nil
	}
	designCache.Unlock()

	// Compile outside the lock: a slow compile must not serialise
	// unrelated cache hits. Two goroutines racing the same cold key
	// both compile; the first store wins and the results are
	// interchangeable.
	d, err := CompileConfig(m, cfg)
	if err != nil {
		return nil, err
	}
	designCache.Lock()
	defer designCache.Unlock()
	if prev, ok := designCache.entries[key]; ok {
		return prev, nil
	}
	designCache.entries[key] = d
	designCache.order = append(designCache.order, key)
	if len(designCache.order) > designCacheBound {
		evict := designCache.order[0]
		designCache.order = designCache.order[1:]
		delete(designCache.entries, evict)
	}
	return d, nil
}
