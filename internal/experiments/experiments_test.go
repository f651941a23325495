package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/hlsbase"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/tir"
)

func TestFig9Experiment(t *testing.T) {
	r, err := Fig9(device.StratixVGSD8())
	if err != nil {
		t.Fatal(err)
	}
	if r.Check24Est < 650 || r.Check24Est > 658 {
		t.Errorf("24-bit check estimate = %d, paper reports 654", r.Check24Est)
	}
	if r.Check24Actual != 652 {
		t.Errorf("24-bit check actual = %d, paper reports 652", r.Check24Actual)
	}
	// The fit tracks the mapper across the sampled range.
	for i, w := range r.Widths {
		if w < 18 {
			continue // below the smallest fit point
		}
		e := float64(r.DivEst[i]-r.DivActual[i]) / float64(r.DivActual[i])
		if e < -0.02 || e > 0.02 {
			t.Errorf("div fit at %d bits off by %.1f%%", w, e*100)
		}
	}
	tab := r.Table().String()
	if !strings.Contains(tab, "div-ALUTs(fit)") || !strings.Contains(tab, "24*") {
		t.Error("Fig 9 table missing expected columns")
	}
}

func TestFig10Experiment(t *testing.T) {
	r, err := Fig10(device.Virtex7690T())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Samples) != 18 { // 9 dims x 2 patterns
		t.Errorf("got %d samples, want 18", len(r.Samples))
	}
	if !strings.Contains(r.Table().String(), "Gbps") {
		t.Error("Fig 10 table missing bandwidth column")
	}
}

func TestTable2Experiment(t *testing.T) {
	r, err := Table2(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(r.Rows))
	}
	for _, row := range r.Rows {
		errs := row.Errs()
		for i, name := range []string{"ALUT", "REG", "BRAM", "DSP", "CPKI"} {
			if errs[i] > 15 {
				t.Errorf("%s %s error %.1f%% out of the paper's band", row.Kernel, name, errs[i])
			}
		}
		if row.CPKIEst == row.CPKIActual {
			t.Errorf("%s: estimated CPKI coincides with simulated; the simulator should see effects the model does not", row.Kernel)
		}
	}
	tab := r.Table().String()
	for _, k := range []string{"sor", "hotspot", "lavamd", "% error"} {
		if !strings.Contains(tab, k) {
			t.Errorf("Table II rendering missing %q", k)
		}
	}
}

func TestCaseStudyExperiment(t *testing.T) {
	r := CaseStudy(nil, 1000)
	if len(r.Rows) != 5 {
		t.Fatalf("got %d rows, want 5 grid sizes", len(r.Rows))
	}
	big := r.Rows[len(r.Rows)-1]
	if big.Normalised[hlsbase.PlatformTytra] >= 1 {
		t.Error("tytra not faster than cpu at the largest grid")
	}
	if !strings.Contains(r.Fig17Table().String(), "fpga-tytra") {
		t.Error("Fig 17 table missing platform column")
	}
	if !strings.Contains(r.Fig18Table().String(), "cpu(J)") {
		t.Error("Fig 18 table missing energy column")
	}
}

func TestEstimatorSpeedExperiment(t *testing.T) {
	mdl, err := costmodel.Calibrate(device.StratixVGSD8())
	if err != nil {
		t.Fatal(err)
	}
	r, err := EstimatorSpeed(mdl)
	if err != nil {
		t.Fatal(err)
	}
	if r.Variants != 16 {
		t.Errorf("variants = %d, want 16", r.Variants)
	}
	// The paper's prototype took 0.3 s per variant; this implementation
	// must be well under that (it is the headline "fast" claim).
	if r.PerVar.Seconds() > 0.05 {
		t.Errorf("estimator at %v per variant; the paper's claim needs well under 0.3 s", r.PerVar)
	}
	if !strings.Contains(r.Table().String(), "x faster") {
		t.Error("speed table missing comparison")
	}
}

// TestFig15HybridExperiment runs the hybrid-mode Fig 15 sweep at the
// trimmed NDRange and cross-checks it against a model-only exploration
// of the same spec: identical walls, identical model scores, and every
// calibration row inside the tolerance band with no drift flags.
func TestFig15HybridExperiment(t *testing.T) {
	r, err := Fig15Hybrid(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Calibration) == 0 {
		t.Fatal("no calibration rows")
	}
	if len(r.Calibration) != len(r.B.Points) {
		t.Errorf("%d calibration rows for %d points", len(r.Calibration), len(r.B.Points))
	}
	for _, row := range r.Calibration {
		if row.Drift {
			t.Errorf("%s: model/sim ratio %.3f drifted past the tolerance", row.Variant, row.Ratio)
		}
		if row.SimCPKI <= 0 || row.ModelCPKI <= 0 {
			t.Errorf("%s: degenerate cycle counts %d / %d", row.Variant, row.ModelCPKI, row.SimCPKI)
		}
	}

	mdl, err := costmodel.Calibrate(r.Target)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := membw.Build(r.Target)
	if err != nil {
		t.Fatal(err)
	}
	build := func(lanes int) (*tir.Module, error) { return fig15HybridSpec(false, lanes).Module() }
	lanes := dse.DivisorLaneCounts(fig15HybridSpec(false, 1).GlobalSize(), 16)
	space, err := dse.NewSpace(dse.LanesAxis(lanes))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dse.NewEngine(space, dse.NewEvaluator(mdl, bw, build, perf.Workload{NKI: 10}, perf.FormB), 0).
		Run(dse.Exhaustive{})
	if err != nil {
		t.Fatal(err)
	}
	model, err := res.Sweep(perf.FormB)
	if err != nil {
		t.Fatal(err)
	}
	if r.B.ComputeWall != model.ComputeWall || r.B.DRAMWall != model.DRAMWall ||
		r.B.HostWall != model.HostWall {
		t.Errorf("hybrid walls (%d,%d,%d) != model walls (%d,%d,%d)",
			r.B.ComputeWall, r.B.HostWall, r.B.DRAMWall,
			model.ComputeWall, model.HostWall, model.DRAMWall)
	}
	for i := range model.Points {
		if r.B.Points[i].EKIT != model.Points[i].EKIT {
			t.Errorf("lanes=%d: hybrid EKIT %g != model EKIT %g",
				model.Points[i].Lanes, r.B.Points[i].EKIT, model.Points[i].EKIT)
		}
	}

	tab := r.Table().String()
	for _, k := range []string{"hybrid", "model-CPKI", "sim-CPKI", "walls"} {
		if !strings.Contains(tab, k) {
			t.Errorf("hybrid table missing %q", k)
		}
	}
}

// TestDSESimBenchReport checks the BENCH_DSE_SIM.json schema: all nine
// (mode, lanes) rows present, positive measurements, sim fields only
// on the sim-backed modes.
func TestDSESimBenchReport(t *testing.T) {
	r, err := DSESimBench(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != "tytra-bench-dse-sim/v1" {
		t.Errorf("schema = %q", r.Schema)
	}
	if len(r.Rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.NsOp <= 0 || row.ModelEKIT <= 0 || row.ModelCPKI <= 0 {
			t.Errorf("%s lanes=%d: non-positive measurement: %+v", row.Mode, row.Lanes, row)
		}
		simBacked := row.Mode == "sim" || row.Mode == "hybrid"
		if simBacked && (row.SimCycles <= 0 || row.SimEKIT <= 0) {
			t.Errorf("%s lanes=%d: sim fields missing", row.Mode, row.Lanes)
		}
		if !simBacked && (row.SimCycles != 0 || row.SimEKIT != 0) {
			t.Errorf("model lanes=%d: unexpected sim fields: %+v", row.Lanes, row)
		}
	}
	if !strings.Contains(r.JSON(), `"tytra-bench-dse-sim/v1"`) {
		t.Error("JSON rendering missing the schema")
	}
}

// TestFig15DevicesExperiment replays Fig 15 across the shelf and pins
// the edu slice to the single-device Fig 15 run: same walls, same
// points — the device axis must not change what a device's own sweep
// looks like.
func TestFig15DevicesExperiment(t *testing.T) {
	r, err := Fig15Devices()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Shelf) != 3 || len(r.Sweeps) != 3 {
		t.Fatalf("shelf/sweeps = %d/%d, want 3/3", len(r.Shelf), len(r.Sweeps))
	}
	if r.Shelf[0].Name != "stratix-v-gsd8-edu" {
		t.Fatalf("shelf[0] = %s", r.Shelf[0].Name)
	}

	single, err := Fig15()
	if err != nil {
		t.Fatal(err)
	}
	edu := r.Sweeps[0]
	if edu.ComputeWall != single.B.ComputeWall || edu.DRAMWall != single.B.DRAMWall ||
		edu.HostWall != single.B.HostWall {
		t.Errorf("edu slice walls (%d,%d,%d) != Fig15 form-B walls (%d,%d,%d)",
			edu.ComputeWall, edu.HostWall, edu.DRAMWall,
			single.B.ComputeWall, single.B.HostWall, single.B.DRAMWall)
	}
	if len(edu.Points) != len(single.B.Points) {
		t.Fatalf("edu slice has %d points, Fig15 has %d", len(edu.Points), len(single.B.Points))
	}
	for i := range edu.Points {
		if edu.Points[i].EKIT != single.B.Points[i].EKIT ||
			edu.Points[i].Fits != single.B.Points[i].Fits {
			t.Errorf("lanes=%d: edu slice (EKIT %g fits %v) != Fig15 (EKIT %g fits %v)",
				edu.Points[i].Lanes, edu.Points[i].EKIT, edu.Points[i].Fits,
				single.B.Points[i].EKIT, single.B.Points[i].Fits)
		}
	}

	// The walls must move across devices: the edu target hits its
	// compute wall inside the sweep, the full GSD8 does not.
	if edu.ComputeWall == 0 {
		t.Error("edu target shows no compute wall inside 16 lanes")
	}
	if gsd8 := r.Sweeps[1]; gsd8.ComputeWall != 0 {
		t.Errorf("full GSD8 hits a compute wall at %d lanes inside a 16-lane sweep", gsd8.ComputeWall)
	}

	devTab, err := r.Table()
	if err != nil {
		t.Fatal(err)
	}
	tab := devTab.String()
	for _, k := range []string{"Fig 15 per device", "stratix-v-gsd8-edu", "virtex-7-690t", "walls"} {
		if !strings.Contains(tab, k) {
			t.Errorf("device table missing %q", k)
		}
	}
}

// TestDSEStratReport is the strategy-comparison acceptance: every
// strategy finds the exhaustive best on the Fig 15 lanes×form space,
// the adaptive ones charge strictly fewer evaluations than the
// enumeration, and the report is deterministic — the committed
// BENCH_DSE_STRAT.json must be reproducible bit-for-bit on any
// machine.
func TestDSEStratReport(t *testing.T) {
	r, err := DSEStrat(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != "tytra-bench-dse-strat/v1" {
		t.Errorf("schema = %q", r.Schema)
	}
	if got, want := len(r.Rows), len(dse.StrategyNames()); got != want {
		t.Fatalf("%d rows for %d registered strategies", got, want)
	}
	var exhaustive DSEStratRow
	for _, row := range r.Rows {
		if row.Strategy == "exhaustive" {
			exhaustive = row
		}
	}
	if exhaustive.Evals != r.SpacePoints || !exhaustive.FoundBest {
		t.Fatalf("exhaustive row broken: %+v", exhaustive)
	}
	for _, row := range r.Rows {
		if !row.FoundBest {
			t.Errorf("%s: did not find the exhaustive best (%+v)", row.Strategy, row)
		}
		if dse.StrategyIsAdaptive(row.Strategy) {
			if row.Evals >= exhaustive.Evals {
				t.Errorf("%s: charged %d evals, not strictly fewer than exhaustive's %d",
					row.Strategy, row.Evals, exhaustive.Evals)
			}
			if row.Evals > r.Budget {
				t.Errorf("%s: overran the %d-eval budget with %d", row.Strategy, r.Budget, row.Evals)
			}
		}
	}
	// Determinism: a second run renders byte-identical JSON.
	again, err := DSEStrat(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.JSON() != again.JSON() {
		t.Error("strategy comparison is not deterministic across runs")
	}
	tab := r.Table().String()
	for _, k := range []string{"strategy", "evals", "found-best", "hillclimb", "anneal"} {
		if !strings.Contains(tab, k) {
			t.Errorf("table missing %q", k)
		}
	}
}
