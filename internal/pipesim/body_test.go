package pipesim

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tir"
)

// designBodies returns the distinct bodies the design's programs run.
func designBodies(d *CompiledDesign) map[*body]bool {
	bodies := map[*body]bool{}
	for _, p := range d.progs {
		bodies[p.body] = true
	}
	return bodies
}

// fig15SOR is the Fig 15 sweep's SOR workload (14.4M work-items) at the
// given lane count; compiling it executes no data.
func fig15SOR(t testing.TB, lanes int) *tir.Module {
	t.Helper()
	m, err := kernels.SORSpec{IM: 15, JM: 10, KM: 96096, Lanes: lanes}.Module()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestParLanesShareOneBody pins the per-function lowering: the lanes of
// a par node replicate one kernel on streams of the same directions, so
// a design compiles one body for them however many lanes it has, and
// one program per lane that runs that body's ops.
func TestParLanesShareOneBody(t *testing.T) {
	for _, lanes := range []int{1, 8, 16} {
		d, err := CompileConfig(fig15SOR(t, lanes), testConfig)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(d.progs); n != lanes {
			t.Errorf("lanes=%d: %d programs, want %d", lanes, n, lanes)
		}
		if n := len(designBodies(d)); n != 1 {
			t.Errorf("lanes=%d: %d bodies, want 1", lanes, n)
		}
		var ops *op
		for _, p := range d.progs {
			if ops == nil {
				ops = &p.ops[0]
			} else if &p.ops[0] != ops {
				t.Errorf("lanes=%d: a lane's program does not share the body's ops", lanes)
			}
		}
	}
}

// TestCompileAllocsFlatInLanes gates what the shared body saves: a
// 16-lane design allocates at most 3x what the 1-lane design does,
// where compiling every lane's datapath again cost 9.5x. Allocation
// counts, not the wall clock, so the gate is load-immune.
func TestCompileAllocsFlatInLanes(t *testing.T) {
	allocs := func(lanes int) float64 {
		m := fig15SOR(t, lanes)
		return testing.AllocsPerRun(20, func() {
			if _, err := CompileConfig(m, testConfig); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, sixteen := allocs(1), allocs(16)
	t.Logf("Compile: %.0f allocs at 1 lane, %.0f at 16 lanes (%.2fx)", one, sixteen, sixteen/one)
	if sixteen > 3*one {
		t.Errorf("Compile allocates %.0f objects at 16 lanes, %.2fx the %.0f at 1 lane, want <= 3x",
			sixteen, sixteen/one, one)
	}
}

// sharedBodyDesign is a hand-built design whose pipe function @f has
// three call sites.
type sharedBodyDesign struct {
	name string
	m    *tir.Module
	// bodies is the number of bodies the three sites share; batched the
	// number of sites the batched executor runs.
	bodies, batched int
}

// sharedBodyDesigns calls one pipe function three ways: under two port
// directions of a parameter the body never touches, over streams of
// three sizes with windows on both sides, and with one of three sites
// reading its own output stream.
func sharedBodyDesigns() []sharedBodyDesign {
	return []sharedBodyDesign{
		{"directions", directionsDesign(), 2, 3},
		{"sizes", sizesDesign(), 1, 3},
		{"self-aliased", selfAliasedDesign(), 1, 2},
	}
}

// directionsDesign is @f(x, z, q) called from main: z is bound as an
// input at the first and last sites and as an output at the second,
// which materialises it zero-filled.
func directionsDesign() *tir.Module {
	ty := tir.UIntT(16)
	b := tir.NewBuilder("directions")
	f := b.Func("f", tir.ModePipe)
	x := f.Param("x", ty)
	f.Param("z", ty)
	q := f.Param("q", ty)
	v := f.BinImm(tir.OpAdd, f.MulImm(x, 3), 1)
	f.Out(q, v)
	f.Accumulate("acc", tir.OpAdd, v)
	main := b.Func("main", tir.ModeSeq)
	for k, zdir := range []tir.Direction{tir.DirIn, tir.DirOut, tir.DirIn} {
		main.CallOperands("f", tir.ModePipe,
			b.GlobalPort("main", fmt.Sprintf("x%d", k), ty, 150, tir.DirIn, tir.PatternContiguous, 1),
			b.GlobalPort("main", fmt.Sprintf("z%d", k), ty, 150, zdir, tir.PatternContiguous, 1),
			b.GlobalPort("main", fmt.Sprintf("q%d", k), ty, 150, tir.DirOut, tir.PatternContiguous, 1))
	}
	return b.MustModule()
}

// sizesDesign is @f(x, q) with +2 and -3 windows, one site per lane of
// a par node: 200 items with a wide interior, 64 items bounded by the
// shorter output stream, and 5 items with an empty interior.
func sizesDesign() *tir.Module {
	ty := tir.UIntT(16)
	b := tir.NewBuilder("sizes")
	f := b.Func("f", tir.ModePipe)
	x := f.Param("x", ty)
	q := f.Param("q", ty)
	v := f.Add(f.Offset(x, 2), f.Offset(x, -3))
	f.Out(q, v)
	f.Accumulate("acc", tir.OpAdd, v)
	lanes := b.Func("f_lanes", tir.ModePar)
	for k, size := range [][2]int64{{200, 200}, {70, 64}, {5, 5}} {
		lanes.CallOperands("f", tir.ModePipe,
			b.GlobalPort("main", fmt.Sprintf("x%d", k), ty, size[0], tir.DirIn, tir.PatternContiguous, 1),
			b.GlobalPort("main", fmt.Sprintf("q%d", k), ty, size[1], tir.DirOut, tir.PatternContiguous, 1))
	}
	b.Func("main", tir.ModeSeq).CallOperands("f_lanes", tir.ModePar)
	return b.MustModule()
}

// selfAliasedDesign is @f(q, x) with a -1 window, one site per lane of
// a par node: the first lane reads back the channel it writes, so it
// runs in item order, and the other two stream host inputs.
func selfAliasedDesign() *tir.Module {
	const n = 150
	ty := tir.UIntT(16)
	b := tir.NewBuilder("selfaliased")
	f := b.Func("f", tir.ModePipe)
	q := f.Param("q", ty)
	x := f.Param("x", ty)
	f.Out(q, f.Add(f.BinImm(tir.OpAdd, x, 7), f.Offset(x, -1)))
	lanes := b.Func("f_lanes", tir.ModePar)
	chW, chR := b.LocalChannel("main", "ch", ty, n)
	lanes.CallOperands("f", tir.ModePipe, chW, chR)
	for k := 1; k < 3; k++ {
		lanes.CallOperands("f", tir.ModePipe,
			b.GlobalPort("main", fmt.Sprintf("q%d", k), ty, n, tir.DirOut, tir.PatternContiguous, 1),
			b.GlobalPort("main", fmt.Sprintf("x%d", k), ty, n, tir.DirIn, tir.PatternContiguous, 1))
	}
	b.Func("main", tir.ModeSeq).CallOperands("f_lanes", tir.ModePar)
	return b.MustModule()
}

// TestSharedBodyDesignsMatchOracle runs designs whose call sites share
// compiled bodies on both executors, several instances of one design at
// once: every Run must equal the oracle's full Result, and Timing its
// cycles and items. The sites keep their own stream bindings, work-item
// counts, interiors and batching verdicts; a site whose streams alias
// runs scalar while its body's other sites run batched.
func TestSharedBodyDesignsMatchOracle(t *testing.T) {
	const instances, reps = 4, 2
	for _, c := range sharedBodyDesigns() {
		mem, _ := hostMem(c.m, 1<<20)
		want, err := RunOracle(c.m, mem)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		for _, cfg := range execLevels {
			tag := fmt.Sprintf("%s/%+v", c.name, cfg)
			d, err := CompileConfig(c.m, cfg)
			if err != nil {
				t.Fatalf("%s: compile: %v", tag, err)
			}
			if n := len(designBodies(d)); n != c.bodies {
				t.Errorf("%s: %d bodies, want %d", tag, n, c.bodies)
			}
			wantBatched := c.batched
			if cfg.DisableBatch {
				wantBatched = 0
			}
			if batched, total := d.BatchedPrograms(); batched != wantBatched || total != 3 {
				t.Errorf("%s: %d of %d programs batched, want %d of 3", tag, batched, total, wantBatched)
			}
			requireTimingMatchesRun(t, tag, d, want, nil)

			results := make([][reps]*Result, instances)
			errs := make([][reps]error, instances)
			var wg sync.WaitGroup
			for g := range instances {
				wg.Add(1)
				go func() {
					defer wg.Done()
					inst := d.NewInstance()
					for rep := range reps {
						results[g][rep], errs[g][rep] = inst.Run(mem)
					}
				}()
			}
			wg.Wait()
			for g := range instances {
				for rep := range reps {
					if errs[g][rep] != nil {
						t.Fatalf("%s: instance %d run %d: %v", tag, g, rep, errs[g][rep])
					}
					requireIdenticalResult(t, fmt.Sprintf("%s/instance %d/run %d", tag, g, rep), results[g][rep], want)
				}
			}
		}
	}
}
