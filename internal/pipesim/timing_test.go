package pipesim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tir"
)

// hostMem builds the host workload of a module the way dse.SimInputs
// does: every input stream's memory object that no output port
// produces is filled from the shared LCG, masked to the element width.
// It reports ok=false, allocating nothing, when the module's memory
// objects total more than limit elements — Run materialises the
// outputs too.
func hostMem(m *tir.Module, limit int64) (mem map[string][]int64, ok bool) {
	var total int64
	for _, mo := range m.MemObjects {
		if total += mo.Size; mo.Size > limit || total > limit {
			return nil, false
		}
	}
	produced := map[string]bool{}
	for _, port := range m.Ports {
		if so := m.Stream(port.Stream); so != nil && port.Dir == tir.DirOut {
			produced[so.Mem] = true
		}
	}
	mem = map[string][]int64{}
	rng := kernels.NewLCG(1)
	for _, port := range m.Ports {
		so := m.Stream(port.Stream)
		if so == nil || port.Dir != tir.DirIn || produced[so.Mem] || mem[so.Mem] != nil {
			continue
		}
		mo := m.MemObject(so.Mem)
		if mo == nil {
			continue
		}
		data := make([]int64, mo.Size)
		for i := range data {
			data[i] = int64(rng.Next() & mo.Elem.Mask())
		}
		mem[so.Mem] = data
	}
	return mem, true
}

// execLevels are the two executors a design can compile for: batched
// and scalar.
var execLevels = []Config{{}, {DisableBatch: true}}

// timingCorpus is the design corpus the timing differential sweeps:
// the golden specs, every kernel family at lanes 1, 2, 3, 4, 6 and 8
// (each family's NDRange divides evenly at all of them), and the
// coarse pipeline.
func timingCorpus(t *testing.T) map[string]*tir.Module {
	t.Helper()
	specs := goldenSpecs()
	for _, l := range []int{1, 2, 3, 4, 6, 8} {
		specs = append(specs,
			kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: l},
			kernels.HotspotSpec{Rows: 24, Cols: 31, Lanes: l},
			kernels.LavaMDSpec{Pairs: 720, Lanes: l},
			kernels.SRADSpec{Rows: 24, Cols: 19, Lanes: l})
	}
	corpus := map[string]*tir.Module{"coarse": coarseModule(t, 64)}
	for _, spec := range specs {
		m, err := spec.Module()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		corpus[fmt.Sprintf("%s/%d/lanes=%d", spec.Name(), spec.GlobalSize(), spec.LaneCount())] = m
	}
	return corpus
}

// requireTimingMatchesRun asserts Timing agrees with an execution of
// the design on host inputs: both fail with the same error, or both
// succeed with the same cycles and items.
func requireTimingMatchesRun(t *testing.T, tag string, d *CompiledDesign, res *Result, runErr error) {
	t.Helper()
	cycles, items, err := d.Timing()
	switch {
	case err != nil || runErr != nil:
		if fmt.Sprint(err) != fmt.Sprint(runErr) {
			t.Errorf("%s: Timing error %v, Run error %v", tag, err, runErr)
		}
	case cycles != res.Cycles || items != res.Items:
		t.Errorf("%s: Timing (%d cycles, %d items), Run (%d, %d)", tag, cycles, items, res.Cycles, res.Items)
	}
}

// failingDesigns are designs Compile accepts but Run rejects on host
// inputs, mutated from the par-lanes corpus design and the coarse
// pipeline: each binds an object twice or before its producer runs.
func failingDesigns(t *testing.T) map[string]string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "tir", "testdata", "parlanes.tirl"))
	if err != nil {
		t.Fatal(err)
	}
	par := string(src)
	const lanes = "call @f_lanes() par"
	twice := "call @f0(@main.x0, @main.y0) pipe\n  call @f0(@main.x1, @main.y0) pipe"
	coarse := coarseModule(t, 64).String()
	const stageA, stageB = "call @stageA(@main.x, @main.mid_w) pipe", "call @stageB(@main.mid_r, @main.y) pipe"
	return map[string]string{
		"written twice by a lane":  strings.Replace(par, "@f0(@main.x1, @main.y1)", "@f0(@main.x1, @main.y0)", 1),
		"written twice in seq":     strings.Replace(par, lanes, twice, 1),
		"consumer before producer": strings.Replace(coarse, stageA+"\n  "+stageB, stageB+"\n  "+stageA, 1),
	}
}

// TestDifferentialTimingMatchesOracle pins the one cycle formula to
// data execution. On the kernel corpus at every executor level, Timing
// must equal the oracle's cycles and items on host inputs; on every
// FuzzCompile seed and kernel testdata design that compiles, and on
// failingDesigns, Timing must fail exactly when Run fails, with Run's
// error. If the simulator ever gains data-dependent timing, this is
// the test that must fail.
func TestDifferentialTimingMatchesOracle(t *testing.T) {
	for name, m := range timingCorpus(t) {
		mem, _ := hostMem(m, 1<<62)
		want, err := RunOracle(m, mem)
		if err != nil {
			t.Fatalf("%s: oracle run: %v", name, err)
		}
		for _, cfg := range execLevels {
			tag := fmt.Sprintf("%s/%+v", name, cfg)
			d, err := CompileConfig(m, cfg)
			if err != nil {
				t.Fatalf("%s: compile: %v", tag, err)
			}
			requireTimingMatchesRun(t, tag, d, want, nil)
		}
	}

	kernelDesigns, err := filepath.Glob(filepath.Join("..", "kernels", "testdata", "*.tirl"))
	if err != nil {
		t.Fatal(err)
	}
	srcs := fuzzSeeds(t)
	for _, path := range kernelDesigns {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	compiled := 0
	for i, src := range srcs {
		m, err := tir.Parse("seed.tirl", src)
		if err != nil {
			continue
		}
		d, err := CompileConfig(m, testConfig)
		if err != nil {
			continue
		}
		compiled++
		mem, _ := hostMem(m, 1<<62)
		res, runErr := d.Run(mem)
		requireTimingMatchesRun(t, fmt.Sprintf("source %d", i), d, res, runErr)
	}
	if compiled == 0 {
		t.Fatal("no seed design compiled")
	}

	for name, src := range failingDesigns(t) {
		m, err := tir.Parse(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d, err := CompileConfig(m, testConfig)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		mem, _ := hostMem(m, 1<<62)
		res, runErr := d.Run(mem)
		if runErr == nil {
			t.Fatalf("%s: Run succeeded", name)
		}
		requireTimingMatchesRun(t, name, d, res, runErr)
	}
}
