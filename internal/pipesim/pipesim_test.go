package pipesim

import (
	"fmt"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tir"
)

// specTiming pins the cycles and work-items one kernel-instance of
// each spec runSpec runs takes, keyed by name, NDRange and lanes. Timing
// never depends on data, so the seed does not enter the key. Under
// -pipesim.oracle these pin the interpreter's own cycle accounting,
// which the default run pins only through the compiled-vs-oracle
// differentials.
var specTiming = map[string]struct{ cycles, items int64 }{
	"sor/600/lanes=1":     {787, 600},
	"sor/1200/lanes=1":    {1387, 1200},
	"sor/2400/lanes=1":    {2587, 2400},
	"sor/2400/lanes=4":    {795, 2400},
	"hotspot/744/lanes=1": {798, 744},
	"lavamd/64/lanes=1":   {124, 64},
	"lavamd/64/lanes=4":   {84, 64},
}

// runSpec executes a kernel spec end to end: build the module, bind the
// workload, run, check the cycles and items against specTiming, and
// gather outputs.
func runSpec(t *testing.T, spec kernels.Spec, seed int64) (*Result, map[string][]int64, map[string][]int64, map[string]int64) {
	t.Helper()
	m, err := spec.Module()
	if err != nil {
		t.Fatalf("%s: module: %v", spec.Name(), err)
	}
	full := spec.MakeInputs(seed)
	mem, err := kernels.BindInputs(full, spec.LaneCount())
	if err != nil {
		t.Fatalf("%s: bind: %v", spec.Name(), err)
	}
	res, err := run(m, mem)
	if err != nil {
		t.Fatalf("%s: run: %v", spec.Name(), err)
	}
	key := fmt.Sprintf("%s/%d/lanes=%d", spec.Name(), spec.GlobalSize(), spec.LaneCount())
	if want, ok := specTiming[key]; !ok || res.Cycles != want.cycles || res.Items != want.items {
		t.Errorf("%s: %d cycles, %d items; want %d, %d", key, res.Cycles, res.Items, want.cycles, want.items)
	}
	wantOut, wantAcc := spec.Golden(full)
	return res, full, wantOut, wantAcc
}

func TestSORMatchesGolden(t *testing.T) {
	spec := kernels.SORSpec{IM: 15, JM: 10, KM: 8, Lanes: 1}
	res, _, wantOut, wantAcc := runSpec(t, spec, 1)
	got, err := kernels.CollectOutput(res.Mem, "p_new", 1)
	if err != nil {
		t.Fatal(err)
	}
	want := wantOut["p_new"]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("p_new[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if res.Acc["sorErrAcc"] != wantAcc["sorErrAcc"] {
		t.Errorf("sorErrAcc = %d, want %d", res.Acc["sorErrAcc"], wantAcc["sorErrAcc"])
	}
}

func TestHotspotMatchesGolden(t *testing.T) {
	spec := kernels.HotspotSpec{Rows: 24, Cols: 31, Lanes: 1}
	res, _, wantOut, _ := runSpec(t, spec, 7)
	got, err := kernels.CollectOutput(res.Mem, "t_new", 1)
	if err != nil {
		t.Fatal(err)
	}
	want := wantOut["t_new"]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("t_new[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestLavaMDMatchesGolden(t *testing.T) {
	spec := kernels.LavaMDSpec{Pairs: 64, Lanes: 1}
	res, _, wantOut, wantAcc := runSpec(t, spec, 13)
	for _, sig := range spec.Kernel().Outputs {
		name := sig.Name
		got, err := kernels.CollectOutput(res.Mem, name, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := wantOut[name]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] = %d, want %d", name, i, got[i], want[i])
			}
		}
	}
	if res.Acc["potAcc"] != wantAcc["potAcc"] {
		t.Errorf("potAcc = %d, want %d", res.Acc["potAcc"], wantAcc["potAcc"])
	}
}

func TestLavaMDMultiLaneExact(t *testing.T) {
	// LavaMD has no stream offsets, so lane partitioning is exact: the
	// 4-lane variant must reproduce the single-pipeline output
	// everywhere, and the accumulator too (addition is commutative mod
	// 2^32).
	spec := kernels.LavaMDSpec{Pairs: 64, Lanes: 4}
	res, _, wantOut, wantAcc := runSpec(t, spec, 13)
	for _, sig := range spec.Kernel().Outputs {
		name := sig.Name
		got, err := kernels.CollectOutput(res.Mem, name, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := wantOut[name]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] = %d, want %d", name, i, got[i], want[i])
			}
		}
	}
	if res.Acc["potAcc"] != wantAcc["potAcc"] {
		t.Errorf("potAcc = %d, want %d", res.Acc["potAcc"], wantAcc["potAcc"])
	}
}

func TestSORMultiLaneInterior(t *testing.T) {
	// With 4 lanes the stream is slab-partitioned; away from slab
	// boundaries the stencil sees the same neighbourhood, so interior
	// points must match the single-pipeline reference exactly.
	spec := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 4}
	res, _, wantOut, _ := runSpec(t, spec, 3)
	got, err := kernels.CollectOutput(res.Mem, "p_new", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := wantOut["p_new"]
	interior, boundary := 0, 0
	for i := range want {
		if !spec.InteriorIndex(int64(i)) {
			boundary++
			continue
		}
		interior++
		if got[i] != want[i] {
			t.Fatalf("interior p_new[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if interior == 0 {
		t.Fatal("test grid has no interior points")
	}
	if boundary == 0 {
		t.Fatal("test grid has no boundary points (test is vacuous)")
	}
}

func TestMultiLaneFasterThanSingle(t *testing.T) {
	// The whole point of the lane transformation: 4 lanes must take
	// roughly a quarter of the cycles of 1 lane at the same problem size.
	one := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 1}
	four := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 4}
	res1, _, _, _ := runSpec(t, one, 5)
	res4, _, _, _ := runSpec(t, four, 5)
	if res4.Cycles >= res1.Cycles {
		t.Fatalf("4 lanes (%d cycles) not faster than 1 lane (%d cycles)", res4.Cycles, res1.Cycles)
	}
	speedup := float64(res1.Cycles) / float64(res4.Cycles)
	if speedup < 2.5 || speedup > 4.5 {
		t.Errorf("speedup = %.2f, want ~4 (minus fill overheads)", speedup)
	}
}

func TestCycleAccounting(t *testing.T) {
	// CPKI must be dominated by one item per cycle, plus fill terms that
	// include the offset priming (~150 elements for the SOR k-offset).
	spec := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 1}
	res, _, _, _ := runSpec(t, spec, 5)
	n := spec.GlobalSize()
	if res.Cycles <= n {
		t.Errorf("CPKI %d should exceed the %d streaming cycles (fill terms missing)", res.Cycles, n)
	}
	if res.Cycles > n+400 {
		t.Errorf("CPKI %d has implausibly large fill overhead for %d items", res.Cycles, n)
	}
	if res.Items != n {
		t.Errorf("items = %d, want %d", res.Items, n)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	spec := kernels.DefaultLavaMD()
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	// Missing inputs.
	if _, err := run(m, nil); err == nil {
		t.Error("want error for missing input streams")
	}
	// Wrong length.
	full := spec.MakeInputs(1)
	mem, _ := kernels.BindInputs(full, 1)
	mem[kernels.MemName("xi", -1)] = mem[kernels.MemName("xi", -1)][:3]
	if _, err := run(m, mem); err == nil {
		t.Error("want error for wrong-sized input")
	}
	// Unknown memory object.
	mem2, _ := kernels.BindInputs(spec.MakeInputs(1), 1)
	mem2["no_such_object"] = []int64{1}
	if _, err := run(m, mem2); err == nil {
		t.Error("want error for unknown memory object")
	}
}

func TestRunDeterministic(t *testing.T) {
	spec := kernels.SORSpec{IM: 15, JM: 10, KM: 4, Lanes: 1}
	r1, _, _, _ := runSpec(t, spec, 42)
	r2, _, _, _ := runSpec(t, spec, 42)
	if r1.Cycles != r2.Cycles {
		t.Errorf("cycles differ across identical runs: %d vs %d", r1.Cycles, r2.Cycles)
	}
	a := r1.Mem[kernels.MemName("p_new", -1)]
	b := r2.Mem[kernels.MemName("p_new", -1)]
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs differ at %d", i)
		}
	}
}

func TestCombInlining(t *testing.T) {
	// A pipe kernel delegating part of its datapath to a comb block
	// (Fig 7 configuration 1 / Fig 8) must compute the same result as
	// the flat version.
	build := func(useComb bool) *tir.Module {
		b := tir.NewBuilder("combtest")
		ty := tir.UIntT(16)
		if useComb {
			cb := b.Func("scale", tir.ModeComb)
			x := cb.Param("x", ty)
			y := cb.Param("y", ty)
			r := cb.Param("r", ty)
			s := cb.Add(cb.MulImm(x, 3), y)
			cb.Out(r, s)
		}
		f0 := b.Func("f0", tir.ModePipe)
		a := f0.Param("a", ty)
		bb := f0.Param("b", ty)
		q := f0.Param("q", ty)
		var v tir.Value
		if useComb {
			v = tir.Value{Op: tir.Reg("combined"), Ty: ty}
			f0.CallOperands("scale", tir.ModeComb, a.Op, bb.Op, tir.Reg("combined"))
		} else {
			v = f0.Add(f0.MulImm(a, 3), bb)
		}
		res := f0.Add(v, a)
		f0.Out(q, res)

		main := b.Func("main", tir.ModeSeq)
		pa := b.GlobalPort("main", "a", ty, 32, tir.DirIn, tir.PatternContiguous, 1)
		pb := b.GlobalPort("main", "b", ty, 32, tir.DirIn, tir.PatternContiguous, 1)
		pq := b.GlobalPort("main", "q", ty, 32, tir.DirOut, tir.PatternContiguous, 1)
		main.CallOperands("f0", tir.ModePipe, pa, pb, pq)
		return b.MustModule()
	}

	in := map[string][]int64{}
	av := make([]int64, 32)
	bv := make([]int64, 32)
	for i := range av {
		av[i] = int64(i * 7 % 100)
		bv[i] = int64(i * 13 % 50)
	}
	in["mem_main_a"] = av
	in["mem_main_b"] = bv

	flat, err := run(build(false), in)
	if err != nil {
		t.Fatalf("flat: %v", err)
	}
	comb, err := run(build(true), in)
	if err != nil {
		t.Fatalf("comb: %v", err)
	}
	fq := flat.Mem["mem_main_q"]
	cq := comb.Mem["mem_main_q"]
	for i := range fq {
		if fq[i] != cq[i] {
			t.Fatalf("q[%d]: flat %d vs comb %d", i, fq[i], cq[i])
		}
	}
}
