package pipesim

// Differential and golden tests for the batched executor. The contract
// under test: both compiled executors — scalar and batched — produce a
// Result bit-identical to the retained interpreter oracle, at every
// work-item count around the batch width, including programs the
// compiler must refuse to batch.

import (
	"fmt"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tir"
)

// execConfigs spans the two compiled executors.
func execConfigs() map[string]Config {
	return map[string]Config{
		"batched": {},
		"scalar":  {DisableBatch: true},
	}
}

// batchSizes are the work-item counts of the differential matrix:
// degenerate (smaller than one batch), exactly one batch, one batch
// plus ragged tail, and multiple batches plus tail. Combined with the
// generator's mandatory look-ahead and look-behind windows, the scalar
// prologue/epilogue straddle batch boundaries at every entry.
func batchSizes() []int64 {
	return []int64{1, 3, batchN - 1, batchN, batchN + 1, 2*batchN + 7}
}

// buildSized is the batching variant of the fuzz generator: the stream
// size is pinned by the caller, both a positive and a negative stencil
// offset are always present, and accRead optionally samples the running
// accumulator mid-stream — an order-dependent read the compiler must
// answer with the scalar fallback, not with a wrong batch.
func (g *kernelGen) buildSized(seed uint64, size int64, accRead bool) (*tir.Module, map[string][]int64) {
	g.state = seed*0x9E3779B97F4A7C15 + 1
	ty := tir.UIntT(16 + g.intn(3)*8)
	nIn := 1 + g.intn(2)
	nOps := 3 + g.intn(10)

	b := tir.NewBuilder("fuzzbatch")
	f0 := b.Func("f0", tir.ModePipe)
	var vals []tir.Value
	inNames := make([]string, nIn)
	for i := 0; i < nIn; i++ {
		inNames[i] = "in" + string(rune('a'+i))
		vals = append(vals, f0.Param(inNames[i], ty))
	}
	out := f0.Param("q", ty)
	vals = append(vals, f0.Offset(vals[0], int64(1+g.intn(5))))
	vals = append(vals, f0.Offset(vals[0], -int64(1+g.intn(5))))

	for i := 0; i < nOps; i++ {
		opc := binOps[g.intn(len(binOps))]
		a := vals[g.intn(len(vals))]
		var v tir.Value
		switch g.intn(3) {
		case 0:
			v = f0.BinImm(opc, a, int64(1+g.intn(15)))
		case 1:
			v = f0.Un(tir.OpAbs, a)
		default:
			v = f0.Bin(opc, a, vals[g.intn(len(vals))])
		}
		vals = append(vals, v)
	}
	last := vals[len(vals)-1]
	if accRead {
		last = f0.Bin(tir.OpAdd, last, tir.Value{Op: tir.Global("acc"), Ty: ty})
	}
	f0.Out(out, last)
	f0.Accumulate("acc", tir.OpAdd, last)

	main := b.Func("main", tir.ModeSeq)
	var ops []tir.Operand
	for _, n := range inNames {
		ops = append(ops, b.GlobalPort("main", n, ty, size, tir.DirIn, tir.PatternContiguous, 1))
	}
	ops = append(ops, b.GlobalPort("main", "q", ty, size, tir.DirOut, tir.PatternContiguous, 1))
	main.CallOperands("f0", tir.ModePipe, ops...)

	mem := map[string][]int64{}
	for _, n := range inNames {
		data := make([]int64, size)
		for i := range data {
			data[i] = int64(g.next()) & int64(ty.Mask())
		}
		mem["mem_main_"+n] = data
	}
	return b.MustModule(), mem
}

func TestDifferentialBatchSizes(t *testing.T) {
	// batched == scalar == oracle bit-exact across the work-item
	// matrix, with and without order-dependent accumulator reads.
	g := &kernelGen{}
	for _, size := range batchSizes() {
		for _, accRead := range []bool{false, true} {
			for seed := uint64(1); seed <= 8; seed++ {
				m, mem := g.buildSized(seed, size, accRead)
				want, err := RunOracle(m, mem)
				if err != nil {
					t.Fatalf("size %d seed %d: oracle: %v\n%s", size, seed, err, m)
				}
				for name, cfg := range execConfigs() {
					d, err := CompileConfig(m, cfg)
					if err != nil {
						t.Fatalf("size %d seed %d %s: compile: %v\n%s", size, seed, name, err, m)
					}
					if accRead {
						if batched, _ := d.BatchedPrograms(); batched != 0 {
							t.Fatalf("size %d seed %d %s: order-dependent accumulator read was batched", size, seed, name)
						}
					}
					got, err := d.NewInstance().Run(mem)
					if err != nil {
						t.Fatalf("size %d seed %d %s: run: %v\n%s", size, seed, name, err, m)
					}
					requireIdenticalResult(t,
						fmt.Sprintf("size %d seed %d accread %v %s", size, seed, accRead, name), got, want)
				}
			}
		}
	}
}

func TestLoadOffsetBoundaryGolden(t *testing.T) {
	// Satellite pin for the hoisted uopLoadOff bounds check: the
	// expected output is computed by hand, so the zero-fill at both
	// boundaries is pinned independently of the oracle. The +3/-2
	// windows put boundary items in the scalar prologue/epilogue and
	// the interior in the branch-free region (batched or scalar).
	const ahead, behind = 3, 2
	mask := int64(0xFFFF)
	for _, size := range []int64{6, 8, batchN, batchN + 5, 2*batchN + 7} {
		b := tir.NewBuilder("boundary")
		ty := tir.UIntT(16)
		f0 := b.Func("f0", tir.ModePipe)
		x := f0.Param("x", ty)
		q := f0.Param("q", ty)
		f0.Out(q, f0.Add(f0.Offset(x, ahead), f0.Offset(x, -behind)))
		px := b.GlobalPort("main", "x", ty, size, tir.DirIn, tir.PatternContiguous, 1)
		pq := b.GlobalPort("main", "q", ty, size, tir.DirOut, tir.PatternContiguous, 1)
		main := b.Func("main", tir.ModeSeq)
		main.CallOperands("f0", tir.ModePipe, px, pq)
		m := b.MustModule()

		data := make([]int64, size)
		for i := range data {
			data[i] = int64(i*257+13) & mask
		}
		mem := map[string][]int64{"mem_main_x": data}
		want := make([]int64, size)
		for i := int64(0); i < size; i++ {
			var hi, lo int64
			if i+ahead < size {
				hi = data[i+ahead]
			}
			if i-behind >= 0 {
				lo = data[i-behind]
			}
			want[i] = (hi + lo) & mask
		}

		for name, cfg := range execConfigs() {
			d, err := CompileConfig(m, cfg)
			if err != nil {
				t.Fatalf("size %d %s: %v", size, name, err)
			}
			res, err := d.NewInstance().Run(mem)
			if err != nil {
				t.Fatalf("size %d %s: %v", size, name, err)
			}
			got := res.Mem["mem_main_q"]
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("size %d %s: q[%d] = %d, want %d", size, name, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSelfAliasedStreamNotBatched(t *testing.T) {
	// The self-wired LocalChannel from TestCompiledBindsArgsInOracleOrder:
	// the input and output streams share one memory object, and the -1
	// window reads the previous item's just-written output. Batching
	// would break that order, so the compiler must refuse it — and the
	// scalar fallback must still match the oracle.
	const n = 48
	b := tir.NewBuilder("selfwire")
	ty := tir.UIntT(16)
	f0 := b.Func("f0", tir.ModePipe)
	q := f0.Param("q", ty)
	x := f0.Param("x", ty)
	prev := f0.Offset(x, -1)
	f0.Out(q, f0.Add(f0.BinImm(tir.OpAdd, x, 7), prev))

	chW, chR := b.LocalChannel("main", "ch", ty, n)
	main := b.Func("main", tir.ModeSeq)
	main.CallOperands("f0", tir.ModePipe, chW, chR)
	m := b.MustModule()

	d, err := CompileConfig(m, testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if batched, total := d.BatchedPrograms(); batched != 0 || total != 1 {
		t.Fatalf("self-aliased program batched: %d of %d", batched, total)
	}
	got, err := d.NewInstance().Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunOracle(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResult(t, "selfwire-batchgate", got, want)
}

func TestGoldenKernelsBatched(t *testing.T) {
	// Every golden kernel is pure streaming with mergeable reductions,
	// so all of its lane programs must take the batched executor.
	for _, spec := range goldenSpecs() {
		if spec.LaneCount() != 1 {
			continue
		}
		m, err := spec.Module()
		if err != nil {
			t.Fatal(err)
		}
		// Explicit config: this test pins the batched executor even
		// when the suite runs under -pipesim.scalar.
		d, err := CompileConfig(m, Config{})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		batched, total := d.BatchedPrograms()
		if batched != total || total == 0 {
			t.Errorf("%s: %d of %d programs batched", spec.Name(), batched, total)
		}

		mem, err := kernels.BindInputs(spec.MakeInputs(7), spec.LaneCount())
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.NewInstance().Run(mem)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunOracle(m, mem)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalResult(t, spec.Name()+"-batched", got, want)
	}
}

func TestBatchedIterationsMatchOracle(t *testing.T) {
	// RunIterations threads the batched executor through the feedback
	// loop; the per-instance accumulator history must stay bit-exact.
	spec := kernels.SORSpec{IM: 15, JM: 10, KM: 8, Lanes: 1}
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := kernels.BindInputs(spec.MakeInputs(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	fb := Feedback{kernels.MemName("p_new", -1): kernels.MemName("p", -1)}
	d, err := CompileConfig(m, testConfig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.NewInstance().RunIterations(mem, 4, fb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runIterations(m, func(cur map[string][]int64) (*Result, error) {
		return RunOracle(m, cur)
	}, mem, 4, fb)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalCycles != want.TotalCycles || got.Instances != want.Instances {
		t.Fatalf("iteration accounting differs: %d cycles/%d instances vs %d/%d",
			got.TotalCycles, got.Instances, want.TotalCycles, want.Instances)
	}
	for k := range want.AccHistory {
		for name, w := range want.AccHistory[k] {
			if g := got.AccHistory[k][name]; g != w {
				t.Errorf("instance %d acc %s = %d, want %d", k, name, g, w)
			}
		}
	}
	for name, w := range want.Final {
		g := got.Final[name]
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("final %s[%d] = %d, want %d", name, i, g[i], w[i])
			}
		}
	}
}
