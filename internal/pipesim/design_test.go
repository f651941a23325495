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
// half on dedicated instances, half on a fresh instance per d.Run —
// and every result must be bit-identical to the sequential oracle. Run
// with -race; on both executors the design is read-only after Compile,
// so the race detector proves the immutability claim rather than
// taking it on faith.
func TestConcurrentSharedDesign(t *testing.T) {
	levels := []struct {
		name string
		cfg  Config
	}{
		{"batched", Config{}},
		{"scalar", Config{DisableBatch: true}},
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
					// Fresh instance per rep.
					for rep := 0; rep < reps; rep++ {
						res, err := d.Run(mem)
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

		d, err := CompileConfig(m, testConfig)
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

// TestInstanceRunAllocations gates the perf claim of the Instance: a
// Run on a reused instance allocates only the per-run outputs (the
// Result, its maps, the fresh output arrays) — no compiled-program
// scratch, no input copies. Allocated bytes are read from the
// runtime's monotonic malloc counters, not the wall clock, so the gate
// is load-immune. Against the seed-equivalent run (a defensive copy of
// every input array first) the reused instance must allocate at least
// 45% fewer bytes on every kernel: the input share of the traffic is
// ~2/3 on 2-input kernels and exactly 1/2 on the 1-input ones (srad).
// The 2-input SOR kernel keeps the stricter >= 50% and an
// allocation-count cap that is loose against map-internals noise. A
// regression that re-allocates the scratch on every run stays under
// the count cap (11 allocs/op on SOR) but cuts the byte saving to ~0.39
// on the small SOR and ~0.40 on srad, so the byte bounds catch it.
func TestInstanceRunAllocations(t *testing.T) {
	if oracle {
		t.Skip("the allocation gate prices the compiled executor, not the oracle")
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
			d, err := CompileConfig(m, testConfig)
			if err != nil {
				t.Fatal(err)
			}
			inst := d.NewInstance()
			sor := spec.Name() == "sor"
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := inst.Run(mem); err != nil {
					t.Fatal(err)
				}
			})
			// One output array + Result + two small maps.
			const maxAllocs = 24
			if sor && allocs > maxAllocs {
				t.Errorf("instance Run: %.1f allocs/op, want <= %d", allocs, maxAllocs)
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
				if _, err := inst.Run(copied); err != nil {
					t.Fatal(err)
				}
			})
			instBytes := measure(func() {
				if _, err := inst.Run(mem); err != nil {
					t.Fatal(err)
				}
			})
			minReduction := 0.45
			if sor {
				minReduction = 0.50
			}
			reduction := 1 - float64(instBytes)/float64(seedBytes)
			t.Logf("%.1f allocs/op; %d instance vs %d seed-equivalent bytes per 50 runs (reduction %.2f)",
				allocs, instBytes, seedBytes, reduction)
			if reduction < minReduction {
				t.Errorf("instance Run allocated %d bytes / 50 runs vs seed-equivalent %d: reduction %.2f, want >= %.2f",
					instBytes, seedBytes, reduction, minReduction)
			}
		})
	}
}
