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

// deviceResult explores a small SOR family across a two-entry shelf.
func deviceResult(t *testing.T) *dse.Result {
	t.Helper()
	shelf, err := device.Shelf("stratix-v-gsd8-edu", "virtex-7-690t")
	if err != nil {
		t.Fatal(err)
	}
	build := func(lanes int) (*tir.Module, error) {
		return kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: lanes}.Module()
	}
	space, err := dse.NewSpace(dse.LanesAxis([]int{1, 2, 4}), dse.DeviceAxis(shelf...))
	if err != nil {
		t.Fatal(err)
	}
	eval, err := dse.NewDeviceModeEvaluatorCache(dse.EvalModel, shelf, build, perf.Workload{NKI: 10}, perf.FormB,
		dse.SimConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dse.NewEngine(space, eval, 0).Run(dse.Exhaustive{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDeviceSweepTable(t *testing.T) {
	res := deviceResult(t)
	tab, err := DeviceSweepTable("cross-device sweep", res)
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	for _, want := range []string{"device", "stratix-v-gsd8-edu", "virtex-7-690t", "EKIT/s"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	// 6 points + title + separator + header + header separator.
	if lines := strings.Count(strings.TrimRight(s, "\n"), "\n") + 1; lines != 10 {
		t.Errorf("table has %d lines, want 10:\n%s", lines, s)
	}
	// Grouped by device first: the edu rows come before any virtex row.
	if strings.Index(s, "virtex-7-690t") < strings.LastIndex(s, "stratix-v-gsd8-edu") {
		t.Errorf("rows not grouped by shelf order:\n%s", s)
	}
}

func TestDeviceSummaryTable(t *testing.T) {
	res := deviceResult(t)
	tab, err := DeviceSummaryTable("summary", res)
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	for _, want := range []string{"best", "dram-wall", "stratix-v-gsd8-edu", "virtex-7-690t"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestDeviceTablesRequireDeviceAxis(t *testing.T) {
	res := hybridResult(t) // lanes-only space
	if _, err := DeviceSweepTable("x", res); err == nil {
		t.Error("DeviceSweepTable accepted a result without a device axis")
	}
	if _, err := DeviceSummaryTable("x", res); err == nil {
		t.Error("DeviceSummaryTable accepted a result without a device axis")
	}
}
