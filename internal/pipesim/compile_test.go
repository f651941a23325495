package pipesim

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/tir"
)

// requireIdenticalResult asserts two executions are bit-identical in
// every observable: memory contents, accumulators, cycles, items.
func requireIdenticalResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Errorf("%s: cycles = %d, want %d", tag, got.Cycles, want.Cycles)
	}
	if got.Items != want.Items {
		t.Errorf("%s: items = %d, want %d", tag, got.Items, want.Items)
	}
	if len(got.Mem) != len(want.Mem) {
		t.Errorf("%s: %d memory objects, want %d", tag, len(got.Mem), len(want.Mem))
	}
	for name, w := range want.Mem {
		g, ok := got.Mem[name]
		if !ok {
			t.Errorf("%s: memory object %s missing", tag, name)
			continue
		}
		if len(g) != len(w) {
			t.Errorf("%s: %s has %d elements, want %d", tag, name, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: %s[%d] = %d, want %d", tag, name, i, g[i], w[i])
			}
		}
	}
	if len(got.Acc) != len(want.Acc) {
		t.Errorf("%s: %d accumulators, want %d", tag, len(got.Acc), len(want.Acc))
	}
	for name, w := range want.Acc {
		if g, ok := got.Acc[name]; !ok || g != w {
			t.Errorf("%s: acc %s = %d (present %v), want %d", tag, name, g, ok, w)
		}
	}
}

// goldenSpecs spans all four golden kernels at single- and multi-lane
// replication (multi-lane exercises the par lane loop and the shared
// accumulators).
func goldenSpecs() []kernels.Spec {
	return []kernels.Spec{
		kernels.SORSpec{IM: 15, JM: 10, KM: 8, Lanes: 1},
		kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 4},
		kernels.HotspotSpec{Rows: 24, Cols: 31, Lanes: 1},
		kernels.HotspotSpec{Rows: 24, Cols: 31, Lanes: 4},
		kernels.LavaMDSpec{Pairs: 64, Lanes: 1},
		kernels.LavaMDSpec{Pairs: 64, Lanes: 4},
		kernels.SRADSpec{Rows: 16, Cols: 21, Lanes: 1},
		kernels.SRADSpec{Rows: 16, Cols: 21, Lanes: 4},
	}
}

func TestCompiledMatchesOracleOnGoldenKernels(t *testing.T) {
	for _, spec := range goldenSpecs() {
		m, err := spec.Module()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		mem, err := kernels.BindInputs(spec.MakeInputs(11), spec.LaneCount())
		if err != nil {
			t.Fatal(err)
		}
		d, err := CompileConfig(m, testConfig)
		if err != nil {
			t.Fatalf("%s: compile: %v", spec.Name(), err)
		}
		got, err := d.NewInstance().Run(mem)
		if err != nil {
			t.Fatalf("%s: compiled run: %v", spec.Name(), err)
		}
		want, err := RunOracle(m, mem)
		if err != nil {
			t.Fatalf("%s: oracle run: %v", spec.Name(), err)
		}
		tag := spec.Name()
		if spec.LaneCount() > 1 {
			tag += "/lanes"
		}
		requireIdenticalResult(t, tag, got, want)
	}
}

func TestCompiledMatchesOracleOnCoarsePipeline(t *testing.T) {
	const n = 64
	m := coarseModule(t, n)
	x := make([]int64, n)
	for i := range x {
		x[i] = int64(i * 53 % 1400)
	}
	mem := map[string][]int64{"mem_main_x": x}
	d, err := CompileConfig(m, testConfig)
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
	requireIdenticalResult(t, "coarse", got, want)
}

func TestCompiledMatchesOracleOnIterations(t *testing.T) {
	// The form-B feedback loop (weather-sim pattern): per-instance
	// accumulator history and the final memory state must agree.
	spec := kernels.SORSpec{IM: 15, JM: 10, KM: 8, Lanes: 2}
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := kernels.BindInputs(spec.MakeInputs(9), spec.Lanes)
	if err != nil {
		t.Fatal(err)
	}
	fb := Feedback{}
	for l := 0; l < spec.Lanes; l++ {
		fb[kernels.MemName("p_new", l)] = kernels.MemName("p", l)
	}
	const nki = 6
	d, err := CompileConfig(m, testConfig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.NewInstance().RunIterations(mem, nki, fb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runIterations(m, func(cur map[string][]int64) (*Result, error) {
		return RunOracle(m, cur)
	}, mem, nki, fb)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalCycles != want.TotalCycles || got.Instances != want.Instances {
		t.Errorf("cycles/instances = %d/%d, want %d/%d",
			got.TotalCycles, got.Instances, want.TotalCycles, want.Instances)
	}
	for k := range want.AccHistory {
		for name, w := range want.AccHistory[k] {
			if g := got.AccHistory[k][name]; g != w {
				t.Errorf("instance %d: acc %s = %d, want %d", k, name, g, w)
			}
		}
	}
	requireIdenticalResult(t, "iterations",
		&Result{Mem: got.Final, Acc: got.Acc},
		&Result{Mem: want.Final, Acc: want.Acc})
}

// TestCompiledBindsArgsInOracleOrder pins arg-order bind semantics: a
// call that wires an output port to a memory object before an input
// port reading the same object is legal on the oracle (the output is
// materialised by the time the input binds), so the compiled path must
// accept it too and produce the identical in-place streaming result.
func TestCompiledBindsArgsInOracleOrder(t *testing.T) {
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
		t.Fatalf("compiled path rejected self-wired call: %v", err)
	}
	got, err := d.NewInstance().Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunOracle(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResult(t, "selfwire", got, want)
}

// TestCrossLaneDependencyRunsSequential pins lane order: a par lane
// consuming another lane's output stream must see it completed, as in
// the oracle's sequential lane loop, and match the oracle bit for bit.
func TestCrossLaneDependencyRunsSequential(t *testing.T) {
	const n = 32
	b := tir.NewBuilder("lanechain")
	ty := tir.UIntT(16)
	f0 := b.Func("f0", tir.ModePipe)
	x := f0.Param("x", ty)
	q := f0.Param("q", ty)
	f0.Out(q, f0.BinImm(tir.OpAdd, x, 100))
	f0.Accumulate("sum", tir.OpAdd, x)

	px := b.GlobalPort("main", "x", ty, n, tir.DirIn, tir.PatternContiguous, 1)
	py := b.GlobalPort("main", "y", ty, n, tir.DirOut, tir.PatternContiguous, 1)
	chW, chR := b.LocalChannel("main", "ch", ty, n)
	lanes := b.Func("f_lanes", tir.ModePar)
	lanes.CallOperands("f0", tir.ModePipe, px, chW)
	lanes.CallOperands("f0", tir.ModePipe, chR, py)
	main := b.Func("main", tir.ModeSeq)
	main.CallOperands("f_lanes", tir.ModePar)
	m := b.MustModule()

	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i * 3)
	}
	mem := map[string][]int64{"mem_main_x": data}

	d, err := CompileConfig(m, testConfig)
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
	requireIdenticalResult(t, "lanechain", got, want)
	// The chain is real: lane 1 must have seen lane 0's completed output.
	y := got.Mem["mem_main_y"]
	for i := range y {
		wantY := (data[i] + 200) & 0xFFFF
		if y[i] != wantY {
			t.Fatalf("y[%d] = %d, want %d", i, y[i], wantY)
		}
	}
}

// TestCompiledAccReadFallsBackSequential pins accumulator order across
// lanes: a datapath that samples an accumulator mid-stream sees every
// earlier lane's writes, so the lane-order run must match the oracle
// bit for bit.
func TestCompiledAccReadFallsBackSequential(t *testing.T) {
	b := tir.NewBuilder("accread")
	ty := tir.UIntT(16)
	f0 := b.Func("f0", tir.ModePipe)
	x := f0.Param("x", ty)
	q := f0.Param("q", ty)
	// Sample the running accumulator into the output, then accumulate:
	// the per-item output depends on execution order across lanes.
	biased := f0.Bin(tir.OpAdd, x, tir.Value{Op: tir.Global("running"), Ty: ty})
	f0.Out(q, biased)
	f0.Accumulate("running", tir.OpAdd, x)

	main := b.Func("main", tir.ModeSeq)
	lanes := b.Func("f_lanes", tir.ModePar)
	for l := 0; l < 3; l++ {
		px := b.GlobalPort("main", "x"+string(rune('0'+l)), ty, 16, tir.DirIn, tir.PatternContiguous, 1)
		pq := b.GlobalPort("main", "q"+string(rune('0'+l)), ty, 16, tir.DirOut, tir.PatternContiguous, 1)
		lanes.CallOperands("f0", tir.ModePipe, px, pq)
	}
	main.CallOperands("f_lanes", tir.ModePar)
	m := b.MustModule()

	mem := map[string][]int64{}
	for l := 0; l < 3; l++ {
		data := make([]int64, 16)
		for i := range data {
			data[i] = int64(l*100 + i)
		}
		mem["mem_main_x"+string(rune('0'+l))] = data
	}

	d, err := CompileConfig(m, testConfig)
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
	requireIdenticalResult(t, "accread", got, want)
}
