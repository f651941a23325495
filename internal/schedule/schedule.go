// Package schedule performs ASAP (as-soon-as-possible) scheduling of a
// TyTra-IR pipe/comb function body into pipeline stages, and computes the
// data/control delay lines needed to balance the datapath (the "Create
// data and control delay lines" stage of the back-end flow, Fig 11).
//
// The schedule is shared infrastructure, computed once per datapath by
// elaboration (internal/elab): the HDL generator emits one stage
// register per scheduled cycle, the pipeline simulator takes its fill
// depth from it, the synthesis substrate counts the balancing registers
// the schedule implies, and the cost model derives the kernel pipeline
// depth (KPD of Table I) from it.
package schedule

import (
	"fmt"
	"sort"

	"repro/internal/tir"
)

// Node is one scheduled datapath operation.
type Node struct {
	Instr tir.Instr
	// Start is the cycle (stage index) at which the operation's inputs
	// are consumed.
	Start int
	// Latency is the functional-unit latency in cycles; results are
	// available at Start+Latency.
	Latency int
}

// Delay records a balancing delay line: a value that must be carried
// Cycles stages forward so that it arrives at a consumer in the same
// wave as its sibling operands.
type Delay struct {
	Value  string // SSA name or parameter name
	Bits   int
	Cycles int
}

// Schedule is the result of scheduling one function.
type Schedule struct {
	Fn    *tir.Function
	Nodes []Node
	// Depth is the kernel pipeline depth (KPD): the number of cycles
	// from a work-item entering to its results (including the global
	// accumulator update) being committed.
	Depth int
	// Delays are the balancing delay lines, one entry per (value,
	// consumer-lag) pair, already coalesced per value to the maximum lag
	// so a single shift chain with taps serves all consumers.
	Delays []Delay
	// ReadyAt maps each SSA value (and parameter) to the cycle its value
	// is available.
	ReadyAt map[string]int
}

// value is what the delay lines need of one named value: its width,
// and lag, the maximum (consumeCycle - readyCycle) over all its
// consumers, which is the length of the delay line it needs.
type value struct {
	bits, lag int
}

// ASAPIn schedules the function body. Offsets are handled by the stream
// controller (they do not consume datapath stages), so they are
// scheduled with latency 0 at cycle 0; everything else starts as soon as
// its operands are ready. comb functions are checked to collapse to a
// single combinatorial stage (every op latency contributes 0).
//
// Calls are handled structurally: calls to pipe, par and seq children
// are peer processing elements, not part of this datapath, and are
// skipped; a call to a comb child is a registered custom combinatorial
// block that reads its in-args and defines its out-args one cycle
// later. Resolving which args are outputs requires the module; ASAPIn
// returns an error if a comb call appears and m is nil.
func ASAPIn(m *tir.Module, f *tir.Function) (*Schedule, error) {
	if f.Mode != tir.ModePipe && f.Mode != tir.ModeComb {
		return nil, fmt.Errorf("schedule: @%s: only pipe and comb functions have datapaths (mode %s)", f.Name, f.Mode)
	}
	// Every table is sized from the function: each parameter and each
	// instruction names at most one value (a comb call can name more),
	// and each instruction is one node.
	names := len(f.Params) + len(f.Body)
	ready := make(map[string]int, names)
	vals := make(map[string]value, names)
	define := func(name string, at, bits int) {
		ready[name] = at
		v := vals[name]
		v.bits = bits
		vals[name] = v
	}
	for _, p := range f.Params {
		define(p.Name, 0, p.Ty.Bits)
	}

	comb := f.Mode == tir.ModeComb
	lat := func(op tir.Opcode, bits int) int {
		if comb {
			return 0
		}
		return op.Latency(bits)
	}

	operandReady := func(o tir.Operand) int {
		if o.Kind == tir.OpReg {
			return ready[o.Name]
		}
		return 0 // immediates and globals are always available
	}

	sched := &Schedule{Fn: f, Nodes: make([]Node, 0, len(f.Body)), ReadyAt: ready}
	lagged := 0 // values with a delay line
	noteUse := func(o tir.Operand, consumeAt int) {
		if o.Kind != tir.OpReg {
			return
		}
		v := vals[o.Name]
		if lag := consumeAt - ready[o.Name]; lag > v.lag {
			if v.lag == 0 {
				lagged++
			}
			v.lag = lag
			vals[o.Name] = v
		}
	}

	depth := 0
	for _, in := range f.Body {
		switch it := in.(type) {
		case *tir.CallInstr:
			if it.Mode != tir.ModeComb {
				// A peer processing element with its own schedule.
				continue
			}
			if m == nil {
				return nil, fmt.Errorf("schedule: @%s: comb call @%s needs module context", f.Name, it.Callee)
			}
			callee := m.Func(it.Callee)
			if callee == nil {
				return nil, fmt.Errorf("schedule: @%s: unknown comb callee @%s", f.Name, it.Callee)
			}
			start := 0
			for k, a := range it.Args {
				if drives(callee, callee.Params[k].Name) {
					continue
				}
				if r := operandReady(a); r > start {
					start = r
				}
			}
			for k, a := range it.Args {
				if drives(callee, callee.Params[k].Name) {
					continue
				}
				noteUse(a, start)
			}
			// The block's outputs are registered at the next stage
			// boundary.
			l := 1
			if comb {
				l = 0
			}
			sched.Nodes = append(sched.Nodes, Node{Instr: in, Start: start, Latency: l})
			for k, a := range it.Args {
				if a.Kind == tir.OpReg && drives(callee, callee.Params[k].Name) {
					define(a.Name, start+l, callee.Params[k].Ty.Bits)
				}
			}
			if start+l > depth {
				depth = start + l
			}
		case *tir.OffsetInstr:
			// Offsets are realised in the stream controller; the value is
			// available in the same wave as its source stream.
			sched.Nodes = append(sched.Nodes, Node{Instr: in, Start: 0, Latency: 0})
			define(it.Dst, operandReady(it.Src), it.Ty.Bits)
		case *tir.ConstInstr:
			sched.Nodes = append(sched.Nodes, Node{Instr: in, Start: 0, Latency: 0})
			define(it.Dst, 0, it.Ty.Bits)
		case *tir.BinInstr:
			start := max(operandReady(it.A), operandReady(it.B))
			l := lat(it.Op, it.Ty.Bits)
			noteUse(it.A, start)
			noteUse(it.B, start)
			sched.Nodes = append(sched.Nodes, Node{Instr: in, Start: start, Latency: l})
			done := start + l
			if it.GlobalDst {
				// Accumulator commit is the last event of the wave.
				if done > depth {
					depth = done
				}
			} else {
				define(it.Dst, done, it.Ty.Bits)
			}
			if done > depth {
				depth = done
			}
		case *tir.UnInstr:
			start := operandReady(it.A)
			l := lat(it.Op, it.Ty.Bits)
			noteUse(it.A, start)
			sched.Nodes = append(sched.Nodes, Node{Instr: in, Start: start, Latency: l})
			define(it.Dst, start+l, it.Ty.Bits)
			if start+l > depth {
				depth = start + l
			}
		case *tir.CmpInstr:
			start := max(operandReady(it.A), operandReady(it.B))
			l := 0
			if !comb {
				l = 1
			}
			noteUse(it.A, start)
			noteUse(it.B, start)
			sched.Nodes = append(sched.Nodes, Node{Instr: in, Start: start, Latency: l})
			define(it.Dst, start+l, 1)
			if start+l > depth {
				depth = start + l
			}
		case *tir.SelectInstr:
			start := max(operandReady(it.Cond), operandReady(it.A), operandReady(it.B))
			l := 0
			if !comb {
				l = 1
			}
			noteUse(it.Cond, start)
			noteUse(it.A, start)
			noteUse(it.B, start)
			sched.Nodes = append(sched.Nodes, Node{Instr: in, Start: start, Latency: l})
			define(it.Dst, start+l, it.Ty.Bits)
			if start+l > depth {
				depth = start + l
			}
		case *tir.OutInstr:
			// Output commit: the port register captures the value the
			// cycle it is ready; it closes the wave like an accumulator.
			start := operandReady(it.Val)
			noteUse(it.Val, start)
			sched.Nodes = append(sched.Nodes, Node{Instr: in, Start: start, Latency: 0})
			if start > depth {
				depth = start
			}
		default:
			return nil, fmt.Errorf("schedule: @%s: unknown instruction %T", f.Name, in)
		}
	}

	// A pipe stage registers its outputs even for a body of pure wires;
	// minimum depth of a pipeline is 1.
	if !comb && depth == 0 && len(f.Body) > 0 {
		depth = 1
	}
	sched.Depth = depth

	// Emit balancing delays in name order: vals is a map, and the
	// generated HDL must not reorder between runs.
	if lagged == 0 {
		return sched, nil
	}
	delayed := make([]string, 0, lagged)
	for name, v := range vals {
		if v.lag > 0 {
			delayed = append(delayed, name)
		}
	}
	sort.Strings(delayed)
	sched.Delays = make([]Delay, len(delayed))
	for i, name := range delayed {
		sched.Delays[i] = Delay{Value: name, Bits: vals[name].bits, Cycles: vals[name].lag}
	}
	return sched, nil
}

// drives reports whether the comb block f binds its parameter name with
// an `out`: a wire the calling datapath receives a result on.
func drives(f *tir.Function, name string) bool {
	for _, in := range f.Body {
		if o, ok := in.(*tir.OutInstr); ok && o.Port == name {
			return true
		}
	}
	return false
}

// OffsetWindow summarises the stream-offset buffering a function needs:
// per source stream, the most-positive and most-negative offsets. The
// stream controller must buffer (maxAhead - minBehind) elements per
// stream, and a work-item can only be issued once maxAhead elements have
// arrived — the "fill offset stream buffers" term of the EKIT equations
// (Noff of Table I).
type OffsetWindow struct {
	Stream   string // source value name (usually a stream parameter)
	Bits     int
	MaxAhead int64 // largest positive offset (look-ahead)
	MaxBack  int64 // largest magnitude of negative offset (history)
}

// Window returns the number of elements the controller must hold.
func (w OffsetWindow) Window() int64 { return w.MaxAhead + w.MaxBack + 1 }

// OffsetWindows scans a function for offset instructions, coalescing
// per-stream. It resolves chained offsets (an offset of an offset) to
// the root stream.
func OffsetWindows(f *tir.Function) []OffsetWindow {
	width := map[string]int{}
	for _, p := range f.Params {
		width[p.Name] = p.Ty.Bits
	}
	// root[v] = (rootStream, cumulativeOffset)
	type rooted struct {
		root string
		off  int64
	}
	roots := map[string]rooted{}
	byStream := map[string]*OffsetWindow{}
	var order []string
	for _, in := range f.Body {
		o, ok := in.(*tir.OffsetInstr)
		if !ok {
			continue
		}
		src := o.Src.Name
		r := rooted{root: src, off: o.Offset}
		if prev, chained := roots[src]; chained {
			r = rooted{root: prev.root, off: prev.off + o.Offset}
		}
		roots[o.Dst] = r
		w, ok := byStream[r.root]
		if !ok {
			w = &OffsetWindow{Stream: r.root, Bits: width[r.root]}
			if w.Bits == 0 {
				w.Bits = o.Ty.Bits
			}
			byStream[r.root] = w
			order = append(order, r.root)
		}
		if r.off > 0 && r.off > w.MaxAhead {
			w.MaxAhead = r.off
		}
		if r.off < 0 && -r.off > w.MaxBack {
			w.MaxBack = -r.off
		}
	}
	out := make([]OffsetWindow, 0, len(order))
	for _, name := range order {
		out = append(out, *byStream[name])
	}
	return out
}

// MaxOffset returns Noff of Table I for the function: the largest
// look-ahead across all streams — the number of elements that must
// arrive before the first work-item can issue.
func MaxOffset(f *tir.Function) int64 {
	var noff int64
	for _, w := range OffsetWindows(f) {
		if w.MaxAhead > noff {
			noff = w.MaxAhead
		}
	}
	return noff
}

func max(vs ...int) int {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
