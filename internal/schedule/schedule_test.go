package schedule

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/tir"
)

// chainFunc builds a pipe function computing ((a*b)+c)/d with a known
// critical path.
func chainFunc(t *testing.T) (*tir.Module, *tir.Function) {
	t.Helper()
	b := tir.NewBuilder("chain")
	ty := tir.UIntT(16)
	f := b.Func("f0", tir.ModePipe)
	a := f.Param("a", ty)
	bb := f.Param("b", ty)
	c := f.Param("c", ty)
	d := f.Param("d", ty)
	q := f.Param("q", ty)
	m := f.Mul(a, bb) // latency 2
	s := f.Add(m, c)  // latency 1, starts at 2
	r := f.Div(s, d)  // latency 16, starts at 3
	f.Out(q, r)       // commits at 19

	main := b.Func("main", tir.ModeSeq)
	pa := b.GlobalPort("main", "a", ty, 16, tir.DirIn, tir.PatternContiguous, 1)
	pb := b.GlobalPort("main", "b", ty, 16, tir.DirIn, tir.PatternContiguous, 1)
	pc := b.GlobalPort("main", "c", ty, 16, tir.DirIn, tir.PatternContiguous, 1)
	pd := b.GlobalPort("main", "d", ty, 16, tir.DirIn, tir.PatternContiguous, 1)
	pq := b.GlobalPort("main", "q", ty, 16, tir.DirOut, tir.PatternContiguous, 1)
	main.CallOperands("f0", tir.ModePipe, pa, pb, pc, pd, pq)
	mod := b.MustModule()
	return mod, mod.Func("f0")
}

func TestASAPDepthFollowsCriticalPath(t *testing.T) {
	_, f := chainFunc(t)
	sch, err := ASAPIn(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	want := tir.OpMul.Latency(16) + tir.OpAdd.Latency(16) + tir.OpDiv.Latency(16)
	if sch.Depth != want {
		t.Errorf("depth = %d, want %d", sch.Depth, want)
	}
}

func TestASAPDelayLines(t *testing.T) {
	// c is consumed at cycle 2 (after the multiply) and d at cycle 3:
	// both need balancing delay lines of those lengths.
	_, f := chainFunc(t)
	sch, err := ASAPIn(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	lags := map[string]int{}
	for _, d := range sch.Delays {
		lags[d.Value] = d.Cycles
	}
	if lags["c"] != tir.OpMul.Latency(16) {
		t.Errorf("delay for c = %d, want %d", lags["c"], tir.OpMul.Latency(16))
	}
	if lags["d"] != tir.OpMul.Latency(16)+1 {
		t.Errorf("delay for d = %d, want %d", lags["d"], tir.OpMul.Latency(16)+1)
	}
	for _, d := range sch.Delays {
		if d.Bits <= 0 {
			t.Errorf("delay for %s has %d bits", d.Value, d.Bits)
		}
	}
}

func TestASAPDepthLowerBoundProperty(t *testing.T) {
	// Depth is at least the worst single-op latency and at most the sum
	// of all latencies, for every kernel in the library.
	for _, spec := range []kernels.Spec{kernels.DefaultSOR(), kernels.DefaultHotspot(), kernels.DefaultLavaMD()} {
		m, err := spec.Module()
		if err != nil {
			t.Fatal(err)
		}
		f := m.Func("f0")
		sch, err := ASAPIn(m, f)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		worst, sum := 0, 0
		for _, n := range sch.Nodes {
			if n.Latency > worst {
				worst = n.Latency
			}
			sum += n.Latency
		}
		if sch.Depth < worst || sch.Depth > sum {
			t.Errorf("%s: depth %d outside [%d, %d]", spec.Name(), sch.Depth, worst, sum)
		}
		// Every node starts no earlier than its operands are ready.
		for _, n := range sch.Nodes {
			for _, u := range n.Instr.Uses() {
				if u.Kind != tir.OpReg {
					continue
				}
				if r, ok := sch.ReadyAt[u.Name]; ok && n.Start < r {
					t.Errorf("%s: node %s starts at %d before operand %s ready at %d",
						spec.Name(), n.Instr, n.Start, u.Name, r)
				}
			}
		}
	}
}

func TestASAPCombCollapses(t *testing.T) {
	b := tir.NewBuilder("comb")
	ty := tir.UIntT(16)
	f := b.Func("c0", tir.ModeComb)
	a := f.Param("a", ty)
	q := f.Param("q", ty)
	f.Out(q, f.Mul(f.Add(a, a), a))
	sch, err := ASAPIn(nil, f.Fn())
	if err != nil {
		t.Fatal(err)
	}
	if sch.Depth != 0 {
		t.Errorf("comb depth = %d, want 0 (single combinatorial stage)", sch.Depth)
	}
}

func TestASAPRejectsNonDatapathModes(t *testing.T) {
	b := tir.NewBuilder("x")
	f := b.Func("p", tir.ModePar)
	if _, err := ASAPIn(nil, f.Fn()); err == nil {
		t.Error("par function scheduled")
	}
}

func TestASAPCombCallSchedules(t *testing.T) {
	b := tir.NewBuilder("cc")
	ty := tir.UIntT(8)
	cb := b.Func("blk", tir.ModeComb)
	x := cb.Param("x", ty)
	r := cb.Param("r", ty)
	cb.Out(r, cb.Add(x, x))

	f0 := b.Func("f0", tir.ModePipe)
	a := f0.Param("a", ty)
	q := f0.Param("q", ty)
	f0.CallOperands("blk", tir.ModeComb, a.Op, tir.Reg("blkout"))
	blkout := tir.Value{Op: tir.Reg("blkout"), Ty: ty}
	f0.Out(q, f0.Add(blkout, a))

	main := b.Func("main", tir.ModeSeq)
	pa := b.GlobalPort("main", "a", ty, 8, tir.DirIn, tir.PatternContiguous, 1)
	pq := b.GlobalPort("main", "q", ty, 8, tir.DirOut, tir.PatternContiguous, 1)
	main.CallOperands("f0", tir.ModePipe, pa, pq)
	m := b.MustModule()

	// Without module context the comb call cannot be resolved.
	if _, err := ASAPIn(nil, m.Func("f0")); err == nil {
		t.Error("comb call scheduled without module context")
	}
	sch, err := ASAPIn(m, m.Func("f0"))
	if err != nil {
		t.Fatal(err)
	}
	// comb block registers its output (1 cycle), then the add (1 cycle).
	if sch.Depth != 2 {
		t.Errorf("depth = %d, want 2", sch.Depth)
	}
}

func TestOffsetWindows(t *testing.T) {
	spec := kernels.DefaultSOR()
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	f := m.Func("f0")
	ws := OffsetWindows(f)
	if len(ws) != 1 {
		t.Fatalf("got %d windows, want 1 (all offsets root at %%p)", len(ws))
	}
	w := ws[0]
	if w.Stream != "p" {
		t.Errorf("window stream = %s", w.Stream)
	}
	if w.MaxAhead != 150 || w.MaxBack != 150 {
		t.Errorf("window = +%d/-%d, want ±150", w.MaxAhead, w.MaxBack)
	}
	if w.Window() != 301 {
		t.Errorf("Window() = %d, want 301", w.Window())
	}
	if MaxOffset(f) != 150 {
		t.Errorf("MaxOffset = %d, want 150", MaxOffset(f))
	}
}

func TestOffsetWindowsChained(t *testing.T) {
	// An offset of an offset resolves to the root stream with the
	// cumulative shift.
	b := tir.NewBuilder("chain")
	ty := tir.UIntT(8)
	f := b.Func("f0", tir.ModePipe)
	p := f.Param("p", ty)
	o1 := f.Offset(p, 4)
	o2 := f.Offset(o1, 3) // net +7
	f.Offset(o2, -20)     // net -13
	ws := OffsetWindows(f.Fn())
	if len(ws) != 1 {
		t.Fatalf("got %d windows, want 1", len(ws))
	}
	if ws[0].MaxAhead != 7 || ws[0].MaxBack != 13 {
		t.Errorf("window = +%d/-%d, want +7/-13", ws[0].MaxAhead, ws[0].MaxBack)
	}
}

func TestNoOffsetsNoWindows(t *testing.T) {
	m, err := kernels.DefaultLavaMD().Module()
	if err != nil {
		t.Fatal(err)
	}
	if ws := OffsetWindows(m.Func("f0")); len(ws) != 0 {
		t.Errorf("lavamd has %d windows, want 0", len(ws))
	}
}
