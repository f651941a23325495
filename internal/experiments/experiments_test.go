package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/hlsbase"
)

func TestFig9Experiment(t *testing.T) {
	r, err := Fig9()
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
	r, err := Fig10()
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
	r, err := Table2()
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
	r := CaseStudy()
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
	r, err := EstimatorSpeed()
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

// TestFig15HybridExperiment runs the hybrid-mode Fig 15 sweep and
// cross-checks it against Fig15's model-only form-B sweep of the same
// spec: identical walls, identical model scores lane by lane, and every
// calibration row inside the tolerance band with no drift flags.
func TestFig15HybridExperiment(t *testing.T) {
	r, err := Fig15Hybrid()
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

	fig15, err := Fig15()
	if err != nil {
		t.Fatal(err)
	}
	model := fig15.B
	if r.B.ComputeWall != model.ComputeWall || r.B.DRAMWall != model.DRAMWall ||
		r.B.HostWall != model.HostWall {
		t.Errorf("hybrid walls (%d,%d,%d) != model walls (%d,%d,%d)",
			r.B.ComputeWall, r.B.HostWall, r.B.DRAMWall,
			model.ComputeWall, model.HostWall, model.DRAMWall)
	}
	if len(r.B.Points) != len(model.Points) {
		t.Fatalf("hybrid sweep has %d points, Fig15 has %d", len(r.B.Points), len(model.Points))
	}
	for i := range model.Points {
		if r.B.Points[i].Lanes != model.Points[i].Lanes || r.B.Points[i].EKIT != model.Points[i].EKIT {
			t.Errorf("point %d: hybrid lanes=%d EKIT %g != model lanes=%d EKIT %g", i,
				r.B.Points[i].Lanes, r.B.Points[i].EKIT, model.Points[i].Lanes, model.Points[i].EKIT)
		}
	}

	tab := r.Table().String()
	for _, k := range []string{"hybrid", "model-CPKI", "sim-CPKI", "walls"} {
		if !strings.Contains(tab, k) {
			t.Errorf("hybrid table missing %q", k)
		}
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

// update rewrites testdata/strat.golden:
//
//	go test ./internal/experiments -run TestDSEStratReport -update
var update = flag.Bool("update", false, "rewrite testdata/strat.golden")

// stratGolden renders the comparison as a header line and one line per
// row. %v prints a float64 at the shortest precision that round-trips,
// so the golden pins every bit.
func stratGolden(r *DSEStratResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "space=%d seed=%d budget=%d workers=%d\n", r.SpacePoints, r.Seed, r.Budget, r.Workers)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s evals=%d coverage=%v best_ekit=%v best=%q found_best=%v stop=%s\n",
			row.Strategy, row.Evals, row.Coverage, row.BestEKIT, row.BestVariant, row.FoundBest, row.Stop)
	}
	return b.String()
}

// TestDSEStratReport is the strategy-comparison acceptance: every
// strategy finds the exhaustive best on the Fig 15 lanes×form space,
// the adaptive ones charge strictly fewer evaluations than the
// enumeration, and the rows are deterministic and pinned by
// testdata/strat.golden, so a change in search behaviour fails here.
func TestDSEStratReport(t *testing.T) {
	r, err := DSEStrat()
	if err != nil {
		t.Fatal(err)
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
	// Determinism: a second run yields identical rows.
	again, err := DSEStrat()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Rows, again.Rows) {
		t.Error("strategy comparison is not deterministic across runs")
	}
	tab := r.Table().String()
	for _, k := range []string{"strategy", "evals", "found-best", "hillclimb", "anneal"} {
		if !strings.Contains(tab, k) {
			t.Errorf("table missing %q", k)
		}
	}

	got := stratGolden(r)
	path := filepath.Join("testdata", "strat.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("strategy comparison drifted from %s (run with -update if intentional):\n got:\n%s\nwant:\n%s",
			path, got, want)
	}
}
