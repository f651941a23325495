package pipesim

import (
	"repro/internal/elab"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/hdl"
	"repro/internal/tir"
)

// coarseModule builds a two-stage coarse-grained pipeline (Fig 7
// configuration 3): stage A smooths the input, stage B thresholds it,
// connected through a local-memory object.
//
//	main(seq) -> top(pipe) -> { stageA(pipe); stageB(pipe) }
func coarseModule(t *testing.T, n int64) *tir.Module {
	t.Helper()
	b := tir.NewBuilder("coarse")
	ty := tir.UIntT(16)

	sa := b.Func("stageA", tir.ModePipe)
	x := sa.Param("x", ty)
	mid := sa.Param("mid", ty)
	xp := sa.Offset(x, 1)
	xn := sa.Offset(x, -1)
	sum := sa.Add(sa.Add(xp, xn), x)
	sa.Out(mid, sa.BinImm(tir.OpLshr, sum, 1))

	sb := b.Func("stageB", tir.ModePipe)
	m := sb.Param("m", ty)
	y := sb.Param("y", ty)
	thr := sb.NamedConst("thr", ty, 512)
	c := sb.Cmp("ugt", m, thr)
	sb.Out(y, sb.Select(c, m, thr))

	top := b.Func("top", tir.ModePipe)

	// External ports plus the inter-stage local buffer.
	px := b.GlobalPort("main", "x", ty, n, tir.DirIn, tir.PatternContiguous, 1)
	py := b.GlobalPort("main", "y", ty, n, tir.DirOut, tir.PatternContiguous, 1)
	midW, midR := b.LocalChannel("main", "mid", ty, n)
	top.CallOperands("stageA", tir.ModePipe, px, midW)
	top.CallOperands("stageB", tir.ModePipe, midR, py)

	main := b.Func("main", tir.ModeSeq)
	main.CallOperands("top", tir.ModePipe)

	return b.MustModule()
}

func TestCoarsePipelineClassifies(t *testing.T) {
	d, err := elab.Elaborate(coarseModule(t, 64))
	if err != nil {
		t.Fatal(err)
	}
	if cfg := d.Config(); cfg != tir.ConfigCoarsePipe {
		t.Errorf("config = %v, want C3 coarse-grained pipeline", cfg)
	}
}

func TestCoarsePipelineExecutes(t *testing.T) {
	const n = 64
	m := coarseModule(t, n)
	x := make([]int64, n)
	for i := range x {
		x[i] = int64(i * 37 % 1400)
	}
	res, err := run(m, map[string][]int64{"mem_main_x": x})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: smooth then threshold, zero-fill at edges.
	at := func(i int) int64 {
		if i < 0 || i >= n {
			return 0
		}
		return x[i]
	}
	y := res.Mem["mem_main_y"]
	for i := 0; i < n; i++ {
		smooth := ((at(i+1) + at(i-1) + at(i)) & 0xFFFF) >> 1
		want := smooth
		if smooth <= 512 {
			want = 512
		}
		if y[i] != want {
			t.Fatalf("y[%d] = %d, want %d", i, y[i], want)
		}
	}
	// The inter-stage buffer is visible in the result for debugging.
	if _, ok := res.Mem["mem_main_mid"]; !ok {
		t.Error("inter-stage memory object not materialised")
	}
	// Chain cycle accounting: items streamed once, both fills paid.
	if res.Cycles <= n || res.Cycles > n+200 {
		t.Errorf("chain CPKI = %d for %d items", res.Cycles, n)
	}
}

func TestCoarsePipelineCosting(t *testing.T) {
	m := coarseModule(t, 64)
	mdl, err := costmodel.Calibrate(device.StratixVGSD8())
	if err != nil {
		t.Fatal(err)
	}
	est, err := mdl.Estimate(elaborate(t, m))
	if err != nil {
		t.Fatal(err)
	}
	// KPD accumulates along the chain: stageA depth + stageB depth + IO.
	if est.KPD < 3 {
		t.Errorf("coarse KPD = %d, want the summed stage depths", est.KPD)
	}
	if est.Config != tir.ConfigCoarsePipe {
		t.Errorf("config = %v", est.Config)
	}
	if est.NI < 6 {
		t.Errorf("NI = %d, both stages should count", est.NI)
	}
}

func TestCoarsePipelineEmitsHDL(t *testing.T) {
	m := coarseModule(t, 64)
	src, err := hdl.Emit(elaborate(t, m))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"module tytra_stageA_dp", "module tytra_stageB_dp", "module tytra_top_coarse"} {
		if !strings.Contains(src, want) {
			t.Errorf("HDL missing %q", want)
		}
	}
}
