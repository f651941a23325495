package main

import (
	"strings"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	cases := map[string]string{
		"fig9":   "resource cost curves",
		"fig15h": "Fig 15 (hybrid)",
		"fig15d": "Fig 15 per device",
		"fig17":  "normalised to cpu",
		"fig18":  "delta-energy",
		"speed":  "estimator",
		"strat":  "strategy comparison",
	}
	for exp, want := range cases {
		var out strings.Builder
		if err := run([]string{"-exp", exp}, &out); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("%s output missing %q", exp, want)
		}
	}
}

// TestRunTable2Small checks that Table II reports every kernel of the
// paper's case study with its error row. The table is small enough to
// run at the paper's scale here; TestRunGolden pins its figures.
func TestRunTable2Small(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "table2"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"Table II", "sor", "hotspot", "lavamd", "% error"} {
		if !strings.Contains(out.String(), k) {
			t.Errorf("table2 output missing %q", k)
		}
	}
}

func TestRunCSVMode(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "fig9", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "bits,div-ALUTs(fit)") {
		t.Error("CSV header missing")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "fig99"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
}
