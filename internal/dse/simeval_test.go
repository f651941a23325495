package dse

// The differential test layer of the simulation-backed evaluators: the
// EKIT cost model, the compiled pipeline simulator and the retained
// interpreter oracle must stay mutually pinned. TestDifferential* are
// the suite CI runs as its own step (see .github/workflows/ci.yml).

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/perf"
	"repro/internal/pipesim"
	"repro/internal/tir"
)

// diffLanes is the lane grid of the differential suite. Every kernel
// family in kernelFamilies() divides evenly at all of them.
var diffLanes = []int{1, 2, 4, 8}

// TestDifferentialSimVsModelOrdering pins the two scorers to each
// other on every golden kernel: the sim-backed result must carry the
// model's fields unchanged (so the walls appear at the same lane
// counts), and the simulated throughput must order the fitting
// variants consistently with the model's prediction — no pair of lane
// counts where the model says meaningfully faster and the simulator
// says meaningfully slower.
func TestDifferentialSimVsModelOrdering(t *testing.T) {
	mdl, bw := fixtures(t)
	w := perf.Workload{NKI: 10}
	for name, family := range kernelFamilies() {
		build := func(l int) (*tir.Module, error) { return family(l).Module() }
		space, err := NewSpace(LanesAxis(diffLanes))
		if err != nil {
			t.Fatal(err)
		}
		modelRes, err := NewEngine(space, NewEvaluator(mdl, bw, build, w, perf.FormB), 0).
			Run(Exhaustive{})
		if err != nil {
			t.Fatalf("%s model: %v", name, err)
		}
		simRes, err := NewEngine(space,
			NewSimEvaluator(mdl, bw, build, w, perf.FormB, SimConfig{}), 0).
			Run(Exhaustive{})
		if err != nil {
			t.Fatalf("%s sim: %v", name, err)
		}

		if modelRes.Walls != simRes.Walls {
			t.Errorf("%s: walls differ: model %+v, sim %+v", name, modelRes.Walls, simRes.Walls)
		}
		for i, mp := range modelRes.Points {
			sp := simRes.Points[i]
			if sp.ModelEKIT != mp.EKIT {
				t.Errorf("%s lanes=%d: sim point's ModelEKIT %g != model EKIT %g",
					name, mp.Lanes, sp.ModelEKIT, mp.EKIT)
			}
			if sp.Fits != mp.Fits || sp.UtilALUT != mp.UtilALUT || sp.Par != mp.Par {
				t.Errorf("%s lanes=%d: model-side fields differ between evaluators", name, mp.Lanes)
			}
			if sp.SimCycles <= 0 || sp.SimItems <= 0 {
				t.Errorf("%s lanes=%d: sim fields not filled: %d cycles / %d items",
					name, mp.Lanes, sp.SimCycles, sp.SimItems)
			}
			if mp.SimCycles != 0 || mp.SimItems != 0 || mp.SimEKIT != 0 {
				t.Errorf("%s lanes=%d: model point carries sim fields: %d cycles / %d items / EKIT %g",
					name, mp.Lanes, mp.SimCycles, mp.SimItems, mp.SimEKIT)
			}
		}

		// Ordering consistency over fitting points. SimEKIT is the
		// compute-side rate (FD / cycles with the data resident), so
		// the model figure it must order like is the compute-side
		// prediction FD / CPKI — the same pair the calibration table
		// compares. (The full EKIT can legitimately order the other
		// way at small NDRanges: more lanes mean smaller per-lane
		// streams, which sit lower on the sustained-bandwidth curve.)
		// A strict (>1%) disagreement in direction is an inversion.
		const eps = 0.01
		modelRate := func(p *Point) float64 {
			return p.Par.FD / float64(p.Est.CPKI(p.Par.NGS))
		}
		for i := range simRes.Points {
			for j := range simRes.Points {
				pi, pj := simRes.Points[i], simRes.Points[j]
				if i == j || !pi.Fits || !pj.Fits {
					continue
				}
				modelSaysFaster := modelRate(pj) > modelRate(pi)*(1+eps)
				simSaysSlower := pj.SimEKIT < pi.SimEKIT*(1-eps)
				if modelSaysFaster && simSaysSlower {
					t.Errorf("%s: ordering inversion between lanes=%d and lanes=%d: model %g -> %g, sim %g -> %g",
						name, pi.Lanes, pj.Lanes, modelRate(pi), modelRate(pj), pi.SimEKIT, pj.SimEKIT)
				}
			}
		}
	}
}

// TestDifferentialRunnerVsOracleCycles pins the compiled executor to
// the interpreter oracle on every golden kernel × lane count the
// evaluator sweeps: the full Result — cycles, items, accumulators and
// memory contents — must be bit-exact.
func TestDifferentialRunnerVsOracleCycles(t *testing.T) {
	for name, family := range kernelFamilies() {
		for _, lanes := range diffLanes {
			spec := family(lanes)
			m, err := spec.Module()
			if err != nil {
				t.Fatalf("%s/%d: %v", name, lanes, err)
			}
			mem, err := kernels.BindInputs(spec.MakeInputs(1), lanes)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, lanes, err)
			}
			d, err := pipesim.Compile(elaborate(t, m))
			if err != nil {
				t.Fatalf("%s/%d: compile: %v", name, lanes, err)
			}
			got, err := d.NewInstance().Run(mem)
			if err != nil {
				t.Fatalf("%s/%d: compiled run: %v", name, lanes, err)
			}
			want, err := pipesim.RunOracle(m, mem)
			if err != nil {
				t.Fatalf("%s/%d: oracle run: %v", name, lanes, err)
			}
			if got.Cycles != want.Cycles || got.Items != want.Items {
				t.Errorf("%s/%d: compiled (%d cycles, %d items) != oracle (%d, %d)",
					name, lanes, got.Cycles, got.Items, want.Cycles, want.Items)
			}
			if len(got.Acc) != len(want.Acc) {
				t.Errorf("%s/%d: accumulator sets differ", name, lanes)
			}
			for k, v := range want.Acc {
				if got.Acc[k] != v {
					t.Errorf("%s/%d: acc %s = %d, oracle %d", name, lanes, k, got.Acc[k], v)
				}
			}
			if len(got.Mem) != len(want.Mem) {
				t.Errorf("%s/%d: memory sets differ", name, lanes)
			}
			for mo, data := range want.Mem {
				g := got.Mem[mo]
				if len(g) != len(data) {
					t.Errorf("%s/%d: %s length %d != %d", name, lanes, mo, len(g), len(data))
					continue
				}
				for i := range data {
					if g[i] != data[i] {
						t.Errorf("%s/%d: %s[%d] = %d, oracle %d", name, lanes, mo, i, g[i], data[i])
						break
					}
				}
			}
		}
	}
}

// fingerprintResult serialises every field of a result the sim-backed
// evaluators fill, floats as exact bit patterns, so two runs compare
// byte-identically.
func fingerprintResult(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy=%s walls=%+v\n", r.Strategy, r.Walls)
	for i, p := range r.Points {
		fmt.Fprintf(&b, "%s lanes=%d fits=%v ekit=%x model=%x sim=%x cycles=%d items=%d "+
			"alut=%x reg=%x bram=%x dsp=%x gmem=%x host=%x limit=%s\n",
			r.Space.Key(r.Variants[i]), p.Lanes, p.Fits,
			math.Float64bits(p.EKIT), math.Float64bits(p.ModelEKIT), math.Float64bits(p.SimEKIT),
			p.SimCycles, p.SimItems,
			math.Float64bits(p.UtilALUT), math.Float64bits(p.UtilReg),
			math.Float64bits(p.UtilBRAM), math.Float64bits(p.UtilDSP),
			math.Float64bits(p.UtilGMemBW), math.Float64bits(p.UtilHostBW),
			p.Breakdown.Limiter)
	}
	if r.Best != nil {
		fmt.Fprintf(&b, "best=%s\n", r.Space.Key(r.BestVariant))
	}
	return b.String()
}

// TestSimEvaluatorDeterministicAcrossWorkers is the race-and-
// determinism gate (run under -race in CI): exploring through a
// sim-backed evaluator must produce byte-identical results at any
// worker count, including the simulated cycle counts — the per-lane
// timing memo may never let scheduling leak into the numbers. It
// covers hybrid mode over sor's lanes×form space and sim mode over
// every kernel family's lanes axis.
func TestSimEvaluatorDeterministicAcrossWorkers(t *testing.T) {
	mdl, bw := fixtures(t)
	w := perf.Workload{NKI: 10}
	type simCase struct {
		mode   EvalMode
		family string
		axes   []Axis
	}
	cases := map[string]simCase{
		"hybrid-sor": {EvalHybrid, "sor", []Axis{LanesAxis(diffLanes), FormAxis(perf.FormA, perf.FormB)}},
	}
	for name := range kernelFamilies() {
		cases["sim-"+name] = simCase{EvalSim, name, []Axis{LanesAxis(diffLanes)}}
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			family := kernelFamilies()[c.family]
			build := func(l int) (*tir.Module, error) { return family(l).Module() }
			workerCounts := []int{1, 4, runtime.NumCPU()}
			var want string
			for _, workers := range workerCounts {
				// A fresh evaluator per engine: nothing memoised may carry
				// over, so every worker count recompiles and re-times from
				// scratch.
				space, err := NewSpace(c.axes...)
				if err != nil {
					t.Fatal(err)
				}
				eval := supplied(c.mode, mdl, bw, build, w, perf.FormB, SimConfig{})
				res, err := NewEngine(space, eval, workers).Run(Exhaustive{})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := fingerprintResult(res)
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Errorf("workers=%d: result fingerprint differs from workers=%d",
						workers, workerCounts[0])
				}
			}
		})
	}
}

// TestDifferentialSimExecBatchedVsScalar pins the sim-backed DSE
// numbers to both of the pipeline simulator's executors: for each
// kernel family and lane count, the cycles and items the sim evaluator
// scores with (taken from CompiledDesign.Timing, no data run) must
// equal what the batched and the scalar executor measure running the
// variant on SimInputs, with the exploration at one worker and at all
// CPUs giving byte-identical results. The executor may change
// execution speed only, never a number the DSE reports.
func TestDifferentialSimExecBatchedVsScalar(t *testing.T) {
	mdl, bw := fixtures(t)
	w := perf.Workload{NKI: 10}
	levels := []pipesim.Config{
		{},                   // batched
		{DisableBatch: true}, // scalar
	}
	for name, family := range kernelFamilies() {
		build := func(l int) (*tir.Module, error) { return family(l).Module() }

		// What each executor measures, per lane count.
		type measured struct{ cycles, items int64 }
		exec := map[int][]measured{}
		for _, lanes := range diffLanes {
			m, err := build(lanes)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, lanes, err)
			}
			mem, err := SimInputs(m, 1)
			if err != nil {
				t.Fatalf("%s/%d: inputs: %v", name, lanes, err)
			}
			for _, cfg := range levels {
				d, err := pipesim.CompileConfig(m, cfg)
				if err != nil {
					t.Fatalf("%s/%d exec=%+v: compile: %v", name, lanes, cfg, err)
				}
				res, err := d.Run(mem)
				if err != nil {
					t.Fatalf("%s/%d exec=%+v: run: %v", name, lanes, cfg, err)
				}
				exec[lanes] = append(exec[lanes], measured{res.Cycles, res.Items})
			}
		}

		var want string
		for _, workers := range []int{1, runtime.NumCPU()} {
			space, err := NewSpace(LanesAxis(diffLanes))
			if err != nil {
				t.Fatal(err)
			}
			eval := NewSimEvaluator(mdl, bw, build, w, perf.FormB, SimConfig{})
			res, err := NewEngine(space, eval, workers).Run(Exhaustive{})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			for _, p := range res.Points {
				for i, got := range exec[p.Lanes] {
					if p.SimCycles != got.cycles || p.SimItems != got.items {
						t.Errorf("%s/%d workers=%d: DSE scored %d cycles / %d items, executor exec=%+v measured %d / %d",
							name, p.Lanes, workers, p.SimCycles, p.SimItems, levels[i], got.cycles, got.items)
					}
				}
			}
			got := fingerprintResult(res)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: result fingerprint at workers=%d differs from workers=1", name, workers)
			}
		}
	}
}

// hasFloatDatapath reports whether any function body contains a
// float-typed datapath instruction. The pipeline simulator is
// integer-only by design (the paper's kernels are fixed-point), so
// such corpus designs must fail with a clean error, never a panic.
func hasFloatDatapath(m *tir.Module) bool {
	for _, f := range m.Funcs {
		for _, in := range f.DatapathInstrs() {
			if bi, ok := in.(*tir.BinInstr); ok && bi.Ty.IsFloat() {
				return true
			}
		}
	}
	return false
}

// TestSimEvaluatorCorpus feeds every committed TyTra-IR corpus design
// (internal/tir/testdata, the corpus_gen.go output) through the
// sim-backed evaluator: no panic, no NaN/Inf throughput, a cache hit
// must return the identical *Point, and the one un-simulatable design
// family (float datapaths) must fail with a clean named error.
func TestSimEvaluatorCorpus(t *testing.T) {
	mdl, bw := fixtures(t)
	files, err := filepath.Glob(filepath.Join("..", "tir", "testdata", "*.tirl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("corpus has only %d files", len(files))
	}
	for _, path := range files {
		name := filepath.Base(path)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := tir.Parse(name, string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lanes := elaborate(t, m).Lanes()
		build := func(l int) (*tir.Module, error) {
			if l != lanes {
				return nil, fmt.Errorf("corpus module has %d lanes, not %d", lanes, l)
			}
			return m, nil
		}
		space, err := NewSpace(LanesAxis([]int{lanes}))
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(space,
			NewSimEvaluator(mdl, bw, build, perf.Workload{NKI: 10}, perf.FormB, SimConfig{}), 0)
		vs := space.Enumerate()
		ps, err := eng.EvalAll(vs)
		if hasFloatDatapath(m) {
			// Integer-only simulator: a float corpus design must be
			// rejected at compile with an error naming the opcode.
			if err == nil || !strings.Contains(err.Error(), "integer") {
				t.Errorf("%s: float datapath not cleanly rejected: %v", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := ps[0]
		for what, v := range map[string]float64{
			"EKIT": p.EKIT, "ModelEKIT": p.ModelEKIT, "SimEKIT": p.SimEKIT, "SimCPI": float64(p.SimCycles) / float64(p.SimItems),
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Errorf("%s: degenerate %s = %v", name, what, v)
			}
		}
		again, err := eng.EvalAll(vs)
		if err != nil {
			t.Fatalf("%s: re-eval: %v", name, err)
		}
		if again[0] != p {
			t.Errorf("%s: cache hit returned a different *Point", name)
		}
	}
}

// TestDifferentialFclkUnits is the fclk-units pin: the fclk axis is
// MHz, perf.Params.FD is Hz, and both the model and sim paths must run
// every conversion through FclkHz. Table-driven over FD scaling: at
// the target's own frequency the axis must be a no-op, the model's
// compute term must scale exactly as 1/FD, and the simulated
// throughput exactly as FD (cycles are frequency-independent).
func TestDifferentialFclkUnits(t *testing.T) {
	mdl, bw := fixtures(t)
	w := perf.Workload{NKI: 10}
	family := kernelFamilies()["sor"]
	build := func(l int) (*tir.Module, error) { return family(l).Module() }

	// The reference point: no fclk axis, the estimate's own Fmax
	// (GSD8Edu runs at 75 MHz).
	refSpace, err := NewSpace(LanesAxis([]int{2}))
	if err != nil {
		t.Fatal(err)
	}
	refEval := supplied(EvalHybrid, mdl, bw, build, w, perf.FormB, SimConfig{})
	ref, err := refEval(refSpace, refSpace.Enumerate()[0])
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		mhz    int
		wantFD float64
	}{
		{75, 75e6},
		{150, 150e6},
		{300, 300e6},
	}
	mhzs := make([]int, len(cases))
	for i, c := range cases {
		mhzs[i] = c.mhz
	}
	space, err := NewSpace(LanesAxis([]int{2}), FclkAxis(mhzs))
	if err != nil {
		t.Fatal(err)
	}
	eval := supplied(EvalHybrid, mdl, bw, build, w, perf.FormB, SimConfig{})
	res, err := NewEngine(space, eval, 0).Run(Exhaustive{})
	if err != nil {
		t.Fatal(err)
	}

	relDiff := func(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }
	for i, c := range cases {
		p := res.Points[i]
		if p.Par.FD != c.wantFD {
			t.Errorf("fclk=%d MHz: FD = %v Hz, want %v (units mismatch)", c.mhz, p.Par.FD, c.wantFD)
		}
		if p.Par.FD != FclkHz(c.mhz) {
			t.Errorf("fclk=%d MHz: FD %v != FclkHz %v", c.mhz, p.Par.FD, FclkHz(c.mhz))
		}
		// The simulator measures cycles; frequency only scales the rate.
		if p.SimCycles != ref.SimCycles {
			t.Errorf("fclk=%d MHz: SimCycles %d != reference %d (measurement must be frequency-independent)",
				c.mhz, p.SimCycles, ref.SimCycles)
		}
		if want := p.Par.FD / float64(p.SimCycles); p.SimEKIT != want {
			t.Errorf("fclk=%d MHz: SimEKIT %v != FD/cycles %v", c.mhz, p.SimEKIT, want)
		}
		// Model compute term ∝ 1/FD: compute·FD is frequency-invariant.
		if got, ref := p.Breakdown.Compute*p.Par.FD, ref.Breakdown.Compute*ref.Par.FD; relDiff(got, ref) > 1e-12 {
			t.Errorf("fclk=%d MHz: compute·FD = %v, want %v (model does not scale as 1/FD)",
				c.mhz, got, ref)
		}
	}

	// At the device's own 75 MHz the axis must change nothing at all.
	p75 := res.Points[0]
	if p75.EKIT != ref.EKIT || p75.SimEKIT != ref.SimEKIT || p75.Par != ref.Par {
		t.Errorf("fclk=75 MHz on a 75 MHz target is not a no-op: EKIT %v vs %v, SimEKIT %v vs %v",
			p75.EKIT, ref.EKIT, p75.SimEKIT, ref.SimEKIT)
	}

	// A non-positive frequency must be rejected loudly, not silently
	// priced at the default Fmax under the requested label.
	badSpace, err := NewSpace(LanesAxis([]int{2}), FclkAxis([]int{0}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eval(badSpace, badSpace.Enumerate()[0]); err == nil ||
		!strings.Contains(err.Error(), "fclk") {
		t.Errorf("fclk=0 accepted: %v", err)
	}
}

// TestSimEvaluatorRejectsDV: the simulator cannot observe
// medium-grained vectorisation, so a dv axis must fail loudly instead
// of silently mispricing.
func TestSimEvaluatorRejectsDV(t *testing.T) {
	mdl, bw := fixtures(t)
	family := kernelFamilies()["sor"]
	build := func(l int) (*tir.Module, error) { return family(l).Module() }
	space, err := NewSpace(LanesAxis([]int{1}), DVAxis([]int{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	eval := NewSimEvaluator(mdl, bw, build, perf.Workload{NKI: 10}, perf.FormB, SimConfig{})
	if _, err := eval(space, space.Enumerate()[0]); err == nil ||
		!strings.Contains(err.Error(), "dv") {
		t.Errorf("dv axis accepted by the sim evaluator: %v", err)
	}

	// A form axis is equally meaningless under pure sim scoring —
	// simulated cycles are form-independent, so EvalSim would tie
	// every form — but stays legal in hybrid mode, where the model
	// ranks.
	formSpace, err := NewSpace(LanesAxis([]int{1}), FormAxis(perf.FormA, perf.FormB))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eval(formSpace, formSpace.Enumerate()[0]); err == nil ||
		!strings.Contains(err.Error(), "form") {
		t.Errorf("form axis accepted by the sim-scored evaluator: %v", err)
	}
	hybrid := supplied(EvalHybrid, mdl, bw, build, perf.Workload{NKI: 10}, perf.FormB, SimConfig{})
	if _, err := hybrid(formSpace, formSpace.Enumerate()[0]); err != nil {
		t.Errorf("form axis rejected by the hybrid evaluator: %v", err)
	}
}
