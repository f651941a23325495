package pipesim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/kernels"
)

// TestConcurrentSharedDesign is the concurrency contract of the
// compile/instance split: N goroutines share ONE CompiledDesign —
// half on dedicated instances, half churning pooled instances through
// Acquire/Release — and every result must be bit-identical to the
// sequential oracle. Run with -race; at every executor escalation
// level the design is read-only after Compile, so the race detector
// proves the immutability claim rather than taking it on faith.
func TestConcurrentSharedDesign(t *testing.T) {
	levels := []struct {
		name string
		cfg  Config
	}{
		{"batched", Config{}},
		{"nofuse", Config{DisableFuse: true}},
		{"scalar", Config{DisableBatch: true, DisableFuse: true}},
	}
	const goroutines = 8
	const reps = 3

	type outcome struct {
		tag string
		res *Result
		err error
	}

	for _, lv := range levels {
		for _, spec := range goldenSpecs() {
			m, err := spec.Module()
			if err != nil {
				t.Fatalf("%s: %v", spec.Name(), err)
			}
			mem, err := kernels.BindInputs(spec.MakeInputs(23), spec.LaneCount())
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunOracle(m, mem)
			if err != nil {
				t.Fatalf("%s: oracle: %v", spec.Name(), err)
			}
			d, err := CompileConfig(m, lv.cfg)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", lv.name, spec.Name(), err)
			}

			results := make(chan outcome, goroutines*reps)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					tag := fmt.Sprintf("%s/%s/lanes%d/g%d", lv.name, spec.Name(), spec.LaneCount(), g)
					if g%2 == 0 {
						// Dedicated instance reused across reps.
						inst := d.NewInstance()
						for rep := 0; rep < reps; rep++ {
							res, err := inst.Run(mem)
							results <- outcome{tag, res, err}
						}
						return
					}
					// Pooled instance per rep: Release must not
					// invalidate the Result already handed out.
					for rep := 0; rep < reps; rep++ {
						inst := d.Acquire()
						res, err := inst.Run(mem)
						d.Release(inst)
						results <- outcome{tag, res, err}
					}
				}(g)
			}
			wg.Wait()
			close(results)
			for o := range results {
				if o.err != nil {
					t.Fatalf("%s: %v", o.tag, o.err)
				}
				requireIdenticalResult(t, o.tag, o.res, want)
			}
		}
	}
}

// TestRunDoesNotCopyOrMutateInputs is the aliasing contract that
// replaced the seed's defensive input copies: caller-provided arrays
// are never written (bindPE materialises every design-written object
// fresh), Result.Mem aliases the inputs, and output arrays are fresh
// allocations distinct from every input.
func TestRunDoesNotCopyOrMutateInputs(t *testing.T) {
	for _, spec := range goldenSpecs() {
		m, err := spec.Module()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		mem, err := kernels.BindInputs(spec.MakeInputs(7), spec.LaneCount())
		if err != nil {
			t.Fatal(err)
		}
		snapshot := map[string][]int64{}
		for name, data := range mem {
			c := make([]int64, len(data))
			copy(c, data)
			snapshot[name] = c
		}

		d, err := Compile(m)
		if err != nil {
			t.Fatalf("%s: compile: %v", spec.Name(), err)
		}
		res, err := d.Run(mem)
		if err != nil {
			t.Fatalf("%s: run: %v", spec.Name(), err)
		}

		tag := fmt.Sprintf("%s/lanes%d", spec.Name(), spec.LaneCount())
		for name, data := range mem {
			snap := snapshot[name]
			for i := range snap {
				if data[i] != snap[i] {
					t.Fatalf("%s: input %s[%d] mutated: %d, was %d", tag, name, i, data[i], snap[i])
				}
			}
			got, ok := res.Mem[name]
			if !ok {
				t.Errorf("%s: input %s missing from Result.Mem", tag, name)
				continue
			}
			if len(data) > 0 && &got[0] != &data[0] {
				t.Errorf("%s: Result.Mem[%s] is a copy, want the caller's array aliased", tag, name)
			}
		}
		outputs := 0
		for name, arr := range res.Mem {
			if _, isInput := mem[name]; isInput {
				continue
			}
			outputs++
			for iname, in := range mem {
				if len(arr) > 0 && len(in) > 0 && &arr[0] == &in[0] {
					t.Errorf("%s: output %s aliases input %s, want a fresh array", tag, name, iname)
				}
			}
		}
		if outputs == 0 {
			t.Errorf("%s: no output objects in Result.Mem", tag)
		}
	}
}

// TestRunOptionsWorkers: the per-execution worker bound is a resource
// knob, never a semantic one — any bound is bit-identical, and the
// option must not stick to the instance across runs.
func TestRunOptionsWorkers(t *testing.T) {
	spec := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 4}
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := kernels.BindInputs(spec.MakeInputs(3), spec.Lanes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	inst := d.NewInstance()
	seq, err := inst.RunWith(mem, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		par, err := inst.RunWith(mem, RunOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalResult(t, fmt.Sprintf("workers=%d", w), par, seq)
	}
	want, err := RunOracle(m, mem)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResult(t, "workers/oracle", seq, want)
}

// TestReleaseForeignInstancePanics: cross-design Release would poison
// both pools; it must fail loudly.
func TestReleaseForeignInstancePanics(t *testing.T) {
	m1, err := kernels.SORSpec{IM: 5, JM: 4, KM: 3, Lanes: 1}.Module()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := kernels.HotspotSpec{Rows: 6, Cols: 7, Lanes: 1}.Module()
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Compile(m1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Compile(m2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Release of a foreign design's instance did not panic")
		}
	}()
	d2.Release(d1.Acquire())
}

// TestPooledRunAllocations gates the perf claim of the instance pool:
// a steady-state pooled Run allocates only the per-run outputs (the
// Result, its maps, the fresh output arrays) — no compiled-program
// scratch, no input copies. Allocated bytes are read from the
// runtime's monotonic malloc counters, not the wall clock, so the gate
// is load-immune. Against the seed-equivalent run (a defensive copy of
// every input array first) the pooled run must allocate at least 45%
// fewer bytes on every kernel: the input share of the traffic is ~2/3
// on 2-input kernels and exactly 1/2 on the 1-input ones (srad). The
// 2-input SOR kernel keeps the stricter >= 50% and an allocation-count
// cap that is loose against map-internals noise but far below one
// progState re-init, so a regression that re-allocates scratch per run
// trips it immediately.
func TestPooledRunAllocations(t *testing.T) {
	if Oracle {
		t.Skip("oracle mode does not use the compiled instance pool")
	}
	cases := []struct {
		spec kernels.LanedSpec
		seed int64
	}{
		{kernels.SORSpec{IM: 15, JM: 10, KM: 8, Lanes: 1}, 13},
		// The workloads of experiments.PipesimBenchSpecs, which the root
		// BenchmarkPipesim family times.
		{kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 1}, 1},
		{kernels.HotspotSpec{Rows: 64, Cols: 93, Lanes: 1}, 1},
		{kernels.LavaMDSpec{Pairs: 4096, Lanes: 1}, 1},
		{kernels.SRADSpec{Rows: 64, Cols: 75, Lanes: 1}, 1},
	}
	for _, c := range cases {
		spec := c.spec
		name := fmt.Sprintf("%s_%d", spec.Name(), spec.GlobalSize())
		t.Run(name, func(t *testing.T) {
			m, err := spec.Module()
			if err != nil {
				t.Fatal(err)
			}
			mem, err := kernels.BindInputs(spec.MakeInputs(c.seed), spec.LaneCount())
			if err != nil {
				t.Fatal(err)
			}
			d, err := Compile(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Run(mem); err != nil { // warm the pool
				t.Fatal(err)
			}
			sor := spec.Name() == "sor"
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := d.Run(mem); err != nil {
					t.Fatal(err)
				}
			})
			// One output array + Result + two small maps + pool bookkeeping.
			const maxAllocs = 24
			if sor && allocs > maxAllocs {
				t.Errorf("pooled Run: %.1f allocs/op, want <= %d", allocs, maxAllocs)
			}

			measure := func(f func()) uint64 {
				const runs = 50
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					f()
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			seedBytes := measure(func() {
				copied := make(map[string][]int64, len(mem))
				for name, data := range mem {
					c := make([]int64, len(data))
					copy(c, data)
					copied[name] = c
				}
				if _, err := d.Run(copied); err != nil {
					t.Fatal(err)
				}
			})
			pooledBytes := measure(func() {
				if _, err := d.Run(mem); err != nil {
					t.Fatal(err)
				}
			})
			minReduction := 0.45
			if sor {
				minReduction = 0.50
			}
			reduction := 1 - float64(pooledBytes)/float64(seedBytes)
			t.Logf("%.1f allocs/op; %d pooled vs %d seed-equivalent bytes per 50 runs (reduction %.2f)",
				allocs, pooledBytes, seedBytes, reduction)
			if reduction < minReduction {
				t.Errorf("pooled Run allocated %d bytes / 50 runs vs seed-equivalent %d: reduction %.2f, want >= %.2f",
					pooledBytes, seedBytes, reduction, minReduction)
			}
		})
	}
}
