package report

import (
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/kernels"
	"repro/internal/perf"
	"repro/internal/tir"
)

// hybridResult explores a small SOR family through the hybrid
// evaluator, giving the calibration code a real result to chew on.
func hybridResult(t *testing.T) *dse.Result {
	t.Helper()
	build := func(lanes int) (*tir.Module, error) {
		return kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: lanes}.Module()
	}
	space, err := dse.NewSpace(dse.LanesAxis([]int{1, 2, 4}))
	if err != nil {
		t.Fatal(err)
	}
	eval, err := dse.NewDeviceModeEvaluatorCache(dse.EvalHybrid, []*device.Target{device.GSD8Edu()}, build,
		perf.Workload{NKI: 10}, perf.FormB, dse.SimConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dse.NewEngine(space, eval, 0).Run(dse.Exhaustive{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCalibrationRows(t *testing.T) {
	res := hybridResult(t)
	rows := Calibration(res, 0)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.ModelCPKI <= 0 || r.SimCPKI <= 0 {
			t.Errorf("%s: degenerate cycles %d / %d", r.Variant, r.ModelCPKI, r.SimCPKI)
		}
		if r.Ratio <= 0 {
			t.Errorf("%s: ratio %v", r.Variant, r.Ratio)
		}
		if r.Drift {
			t.Errorf("%s: SOR calibration drifted: ratio %.3f", r.Variant, r.Ratio)
		}
	}
	// An impossibly tight tolerance must flag every row whose ratio is
	// not exactly 1 — the flag logic itself, independent of accuracy.
	flagged := 0
	for _, r := range Calibration(res, 1e-9) {
		if r.Drift {
			flagged++
		}
	}
	if flagged == 0 {
		t.Error("zero-tolerance calibration flagged nothing; the model should not be cycle-exact")
	}
}

func TestCalibrationSkipsModelOnlyPoints(t *testing.T) {
	res := hybridResult(t)
	// Blank one point's sim fields: the calibration must skip it.
	res.Points[1].SimCycles = 0
	if rows := Calibration(res, 0); len(rows) != 2 {
		t.Errorf("got %d rows after blanking one point, want 2", len(rows))
	}
}

func TestCalibrationTableRendering(t *testing.T) {
	res := hybridResult(t)
	tab := CalibrationTable("calibration", res, 0).String()
	for _, want := range []string{"model-CPKI", "sim-CPKI", "model/sim", "lanes=4", "ok"} {
		if !strings.Contains(tab, want) {
			t.Errorf("calibration table missing %q\n%s", want, tab)
		}
	}
}
