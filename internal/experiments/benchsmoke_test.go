package experiments

import (
	"flag"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/pipesim"
)

// -experiments.benchsmoke gates the timing-sensitive perf gates below so
// the default `go test ./...` run stays load-immune; CI runs each as its
// own step:
//
//	go test ./internal/experiments -experiments.benchsmoke -run PipesimBenchSmoke
//	go test ./internal/experiments -experiments.benchsmoke -run ConcurrentThroughputSmoke -v
//	go test ./internal/experiments -experiments.benchsmoke -run DSEModelBenchSmoke -v
var benchSmoke = flag.Bool("experiments.benchsmoke", false,
	"run the timing-sensitive perf gates (batched executor, shared-design scaling, compiled cost model)")

// TestPipesimBenchSmoke times a pre-built design's dedicated instance on
// the scalar and the batched executor for every PipesimBenchSpecs
// kernel (the pair BenchmarkPipesimExecutors reports), and fails if
// batched is slower than scalar. The measured margin is >2x per kernel,
// so a >=1.0 gate only trips on a real regression (e.g. a kernel
// silently falling off the batched path), not on CI noise.
func TestPipesimBenchSmoke(t *testing.T) {
	if !*benchSmoke {
		t.Skip("timing smoke; enable with -experiments.benchsmoke")
	}
	for _, spec := range PipesimBenchSpecs() {
		t.Run(spec.Name(), func(t *testing.T) {
			m, err := spec.Module()
			if err != nil {
				t.Fatal(err)
			}
			mem, err := kernels.BindInputs(spec.MakeInputs(1), spec.LaneCount())
			if err != nil {
				t.Fatal(err)
			}
			timeLevel := func(cfg pipesim.Config) int64 {
				t.Helper()
				d, err := pipesim.CompileConfig(m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				inst := d.NewInstance()
				ns, err := timeIt(50*time.Millisecond, func() error {
					_, err := inst.Run(mem)
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				return ns
			}
			batchedNs := timeLevel(pipesim.Config{})
			scalarNs := timeLevel(pipesim.Config{DisableBatch: true})
			speedup := float64(scalarNs) / float64(batchedNs)
			t.Logf("scalar %d ns/op, batched %d ns/op (%.2fx)", scalarNs, batchedNs, speedup)
			if speedup < 1.0 {
				t.Errorf("batched executor slower than scalar: %d ns/op vs %d ns/op (%.2fx)",
					batchedNs, scalarNs, speedup)
			}
		})
	}
}

// TestConcurrentThroughputSmoke is the scaling claim of the
// compile/instance split: goroutines sharing ONE CompiledDesign, each
// run on a fresh instance, must deliver strictly more aggregate throughput at
// -j4 than at -j1. Meaningless on a single-CPU host (there is nothing
// to scale onto), so it skips there; CI runners have >= 2.
func TestConcurrentThroughputSmoke(t *testing.T) {
	if !*benchSmoke {
		t.Skip("timing smoke; enable with -experiments.benchsmoke")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skipf("GOMAXPROCS=%d: concurrent scaling needs >= 2 CPUs", runtime.GOMAXPROCS(0))
	}
	spec := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 1}
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := kernels.BindInputs(spec.MakeInputs(1), spec.Lanes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := pipesim.Compile(elaborate(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(mem); err != nil { // warm up before timing
		t.Fatal(err)
	}
	run := func() error {
		_, err := d.Run(mem)
		return err
	}
	j1, err := concurrentThroughput(200*time.Millisecond, 1, run)
	if err != nil {
		t.Fatal(err)
	}
	j4, err := concurrentThroughput(200*time.Millisecond, 4, run)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %.0f ops/s at -j1, %.0f ops/s at -j4 (%.2fx)", spec.Name(), j1, j4, j4/j1)
	if j4 <= j1 {
		t.Errorf("shared-design throughput did not scale: %.0f ops/s at -j4 vs %.0f ops/s at -j1", j4, j1)
	}
}

// TestDSEModelBenchSmoke times one dv=4 variant estimate through the
// tree-walk oracle and through the compiled estimate program on the
// educational target (the pair BenchmarkCompiledEstimate reports), and
// fails if the compiled path loses its headline margins: >=5x over the
// tree walk per kernel and <=2 steady-state allocations per variant.
// The measured margins are two orders of magnitude, so the gate only
// trips on a real regression (e.g. the compiled path silently falling
// back to the tree), not on CI noise.
func TestDSEModelBenchSmoke(t *testing.T) {
	if !*benchSmoke {
		t.Skip("timing smoke; enable with -experiments.benchsmoke")
	}
	mdl, err := costmodel.Calibrate(device.GSD8Edu())
	if err != nil {
		t.Fatal(err)
	}
	const dv = 4
	for _, spec := range []kernels.Spec{kernels.DefaultSOR(), kernels.DefaultHotspot(), kernels.DefaultLavaMD()} {
		t.Run(spec.Name(), func(t *testing.T) {
			m, err := spec.Module()
			if err != nil {
				t.Fatal(err)
			}
			cm, err := mdl.Compile(m)
			if err != nil {
				t.Fatal(err)
			}
			treeNs, err := timeIt(20*time.Millisecond, func() error {
				_, err := mdl.EstimateOracle(elaborate(t, m), dv)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			warmNs, err := timeIt(20*time.Millisecond, func() error {
				_, err := cm.EstimateVectorised(dv)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			allocs := allocsPer(1000, func() { _, _ = cm.EstimateVectorised(dv) })
			speedup := float64(treeNs) / float64(warmNs)
			t.Logf("tree %d ns/op, compiled %d ns/op (%.0fx), %.1f allocs/variant",
				treeNs, warmNs, speedup, allocs)
			if speedup < 5 {
				t.Errorf("compiled estimate only %.1fx over the tree oracle (%d ns vs %d ns)",
					speedup, warmNs, treeNs)
			}
			if allocs > 2 {
				t.Errorf("%.1f allocs per compiled estimate, cap is 2", allocs)
			}
		})
	}
}

// timeIt measures ns per call with a calibration pass followed by a
// timed batch covering at least minTime.
func timeIt(minTime time.Duration, f func() error) (int64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := f(); err != nil {
		return 0, err
	}
	per := time.Since(start)
	if per <= 0 {
		per = time.Nanosecond
	}
	n := int(minTime/per) + 1
	start = time.Now()
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Nanoseconds() / int64(n), nil
}

// concurrentThroughput measures the aggregate rate of `workers`
// goroutines each looping run() — the shared-design service pattern.
// Returns operations per second of wall-clock time.
func concurrentThroughput(minTime time.Duration, workers int, run func() error) (float64, error) {
	start := time.Now()
	if err := run(); err != nil {
		return 0, err
	}
	per := time.Since(start)
	if per <= 0 {
		per = time.Nanosecond
	}
	n := int(minTime/per)/workers + 1
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	start = time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := run(); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	if elapsed <= 0 {
		return 0, nil
	}
	return float64(n*workers) / elapsed, nil
}

// allocsPer reports the average heap allocations of n calls to f,
// measured through the runtime's malloc counter on a quiesced heap.
// Unlike testing.AllocsPerRun it does not round the mean down, so the
// <=2 cap holds exactly.
func allocsPer(n int, f func()) float64 {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}
