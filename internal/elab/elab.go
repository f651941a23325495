// Package elab is the front stage of the back-end flow (Fig 2, Fig 11):
// it elaborates a TyTra-IR module once into the design every back end
// reads — the cost model, the synthesis substrate, the pipeline
// simulator and the HDL generator — so that one verdict decides what is
// legal and one call graph decides how many instances a design has.
//
// A Design holds the verdict of tir.Analyze, the call DAG from @main
// with each reachable function's instance multiplicity, the Fig 7
// configuration and KNL, and the ASAP schedule of each reachable
// datapath. Elaboration costs O(functions + call sites) plus one
// schedule per datapath, however many call paths reach a function.
package elab

import (
	"math"
	"slices"

	"repro/internal/diag"
	"repro/internal/schedule"
	"repro/internal/tir"
)

// MaxInstances bounds the function instances a back end that expands
// the design instance by instance — the pipeline simulator and the HDL
// generator — accepts (CheckBound). Every caller today stays at or
// below 16 lanes (the benchmark, the goldens and the examples), about
// 20 instances; 1024 leaves that 64x of headroom while a design at the
// bound still compiles and emits in milliseconds, and a tytradse
// -maxlanes sweep up to it builds ~0.1 GiB of modules. The cost model
// and fabric price any multiplicity that fits in an int64.
const MaxInstances = 1024

// Design is one elaborated module. It is immutable and safe for
// concurrent use; it reads, and never copies, the module it was
// elaborated from.
type Design struct {
	m        *tir.Module
	warnings diag.List
	// nodes are the functions reachable from @main in DFS post-order
	// (callees before their callers, @main last); nodeOf maps a
	// function's position in m.Funcs to its node, nil when unreachable.
	nodes     []Node
	nodeOf    []*Node
	pos       map[string]int32
	config    tir.Config
	lanes     int
	instances int64
}

// Node is one function reachable from @main, shared by every call
// path that reaches it. Its fields are read-only.
type Node struct {
	Func *tir.Function
	// Mult is the function's instance multiplicity: the number of call
	// paths from @main that reach it, each one a hardware instance.
	Mult int64
	// Calls are the function's call sites in body order, each with the
	// node of its callee.
	Calls []Call
	// Sched is the function's ASAP schedule, nil unless it is a pipe or
	// comb function.
	Sched *schedule.Schedule

	knl int64 // KNL of one instance: the kernel lanes under it
}

// Call is one call site and the node it calls.
type Call struct {
	Site   *tir.CallInstr
	Callee *Node
}

// Elaborate runs tir.Analyze once and, on a module it accepts, builds
// the design. A rejected module returns Analyze's findings as the
// error (a diag.List, warnings included), as does a design whose
// instance count overflows an int64 (TIR060): building the call DAG and
// the schedules cannot otherwise fail on a module Analyze accepts.
//
// The design reads m: m must not be edited after elaboration.
func Elaborate(m *tir.Module) (*Design, error) {
	l := m.Analyze()
	if l.HasErrors() {
		return nil, l
	}
	sites := 0
	d := &Design{m: m, warnings: l, nodeOf: make([]*Node, len(m.Funcs)), pos: make(map[string]int32, len(m.Funcs))}
	for i, f := range m.Funcs {
		d.pos[f.Name] = int32(i)
		for _, in := range f.Body {
			if _, ok := in.(*tir.CallInstr); ok {
				sites++
			}
		}
	}
	b := builder{d: d, calls: make([]Call, 0, sites)}
	d.nodes = make([]Node, 0, len(m.Funcs))
	root := b.visit(d.pos["main"])

	// Reverse post-order visits every caller before its callees, so a
	// node's multiplicity is final when it passes it on.
	root.Mult = 1
	for i := len(d.nodes) - 1; i >= 0; i-- {
		n := &d.nodes[i]
		var ok bool
		if d.instances, ok = add(d.instances, n.Mult); !ok {
			return nil, d.overflow(n)
		}
		for _, c := range n.Calls {
			if c.Callee.Mult, ok = add(c.Callee.Mult, n.Mult); !ok {
				return nil, d.overflow(c.Callee)
			}
		}
	}

	for i := range d.nodes {
		n := &d.nodes[i]
		n.knl = 1
		switch n.Func.Mode {
		case tir.ModePar:
			// All lanes replicate one kernel.
			n.knl = int64(len(n.Calls)) * n.Calls[0].Callee.knl
		case tir.ModePipe, tir.ModeComb:
			sch, err := schedule.ASAPIn(m, n.Func)
			if err != nil {
				return nil, err
			}
			n.Sched = sch
		}
		if n.Func.Mode != tir.ModePar {
			for _, c := range n.Calls {
				n.knl = max(n.knl, c.Callee.knl)
			}
		}
	}
	d.lanes = int(root.knl)
	d.config = classify(root)
	return d, nil
}

// builder carries one DAG build: each function's node is made once,
// after the nodes of its callees, and its call list is cut from one
// slab sized for every call site of the module.
type builder struct {
	d     *Design
	calls []Call
}

// visit returns the node of m.Funcs[i], building it and everything
// below it on first use. Analyze has ruled out unknown callees and
// call cycles.
func (b *builder) visit(i int32) *Node {
	if n := b.d.nodeOf[i]; n != nil {
		return n
	}
	f := b.d.m.Funcs[i]
	start := len(b.calls)
	for _, in := range f.Body {
		if c, ok := in.(*tir.CallInstr); ok {
			b.calls = append(b.calls, Call{Site: c})
		}
	}
	calls := b.calls[start:len(b.calls):len(b.calls)]
	for k := range calls {
		calls[k].Callee = b.visit(b.d.pos[calls[k].Site.Callee])
	}
	b.d.nodes = append(b.d.nodes, Node{Func: f, Calls: calls})
	n := &b.d.nodes[len(b.d.nodes)-1]
	b.d.nodeOf[i] = n
	return n
}

// classify names the Fig 7 configuration of the design rooted at n.
func classify(n *Node) tir.Config {
	// Skip the main(seq) wrapper: classification concerns the device
	// architecture below it, which is a pipe or a par node (TIR047).
	if n.Func.Mode == tir.ModeSeq {
		if len(n.Calls) != 1 {
			return tir.ConfigSeq
		}
		n = n.Calls[0].Callee
	}
	if n.Func.Mode == tir.ModePar {
		for _, lane := range n.Calls {
			for _, c := range lane.Callee.Calls {
				if c.Callee.Func.Mode == tir.ModePipe {
					return tir.ConfigParCoarse
				}
			}
		}
		return tir.ConfigParPipes
	}
	for _, c := range n.Calls {
		if c.Callee.Func.Mode == tir.ModePipe {
			return tir.ConfigCoarsePipe
		}
	}
	return tir.ConfigPipe
}

// add returns a+b for non-negative counts and whether it fits an int64.
func add(a, b int64) (int64, bool) {
	if a > math.MaxInt64-b {
		return 0, false
	}
	return a + b, true
}

// overflow is the error of a design with more instances than an int64
// counts, reported at the first function whose count overflows.
func (d *Design) overflow(n *Node) error {
	return append(d.warnings, diag.New(diag.Error, tir.CodeInstanceBound, n.Func.At,
		"@%s: the design's instance count overflows int64", n.Func.Name))
}

// Module returns the module the design was elaborated from.
func (d *Design) Module() *tir.Module { return d.m }

// Warnings returns the verdict's findings, all of them warnings. The
// list is clipped, so a caller's append copies it.
func (d *Design) Warnings() diag.List { return slices.Clip(d.warnings) }

// Root returns the node of @main.
func (d *Design) Root() *Node { return &d.nodes[len(d.nodes)-1] }

// Nodes returns the reachable functions in DFS post-order from @main,
// following call sites in body order: every callee before its first
// caller, @main last.
func (d *Design) Nodes() []Node { return d.nodes }

// Node returns the node of f, or nil when f is not reachable from
// @main.
func (d *Design) Node(f *tir.Function) *Node {
	if i, ok := d.pos[f.Name]; ok && d.m.Funcs[i] == f {
		return d.nodeOf[i]
	}
	return nil
}

// Config returns the Fig 7 configuration of the design.
func (d *Design) Config() tir.Config { return d.config }

// Lanes returns KNL, the number of parallel kernel lanes: the product
// of par replication factors along the hierarchy (1 for a single
// pipeline).
func (d *Design) Lanes() int { return d.lanes }

// Instances returns the design's function instances: the sum of every
// reachable function's multiplicity.
func (d *Design) Instances() int64 { return d.instances }

// CheckBound returns nil when the design has at most MaxInstances
// instances, and otherwise a TIR060 error. A back end that materialises
// instances calls it before expanding anything.
func (d *Design) CheckBound() error {
	if d.instances <= MaxInstances {
		return nil
	}
	main := d.Root().Func
	return diag.New(diag.Error, tir.CodeInstanceBound, main.At,
		"design has %d function instances, more than the %d a back end materialises", d.instances, MaxInstances)
}
