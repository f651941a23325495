package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden tytradse outputs")

// goldenCases is the flag matrix TestRunGolden pins: every -eval mode,
// every strategy (the adaptive ones seeded and budgeted), -csv, every
// -form, -devices in model and hybrid mode, and every built-in kernel.
// sor-sim and sor-hybrid pin the Fig 15 simulated cycles the
// benchmark's sim-sweep scores.
var goldenCases = map[string][]string{
	"model-sor":        {"-kernel", "sor", "-maxlanes", "8"},
	"form-a":           {"-kernel", "sor", "-maxlanes", "8", "-form", "A"},
	"form-c":           {"-kernel", "sor", "-maxlanes", "4", "-form", "C"},
	"csv":              {"-kernel", "lavamd", "-maxlanes", "4", "-csv", "-target", "stratix-v-gsd8"},
	"sim":              {"-kernel", "hotspot", "-maxlanes", "4", "-eval", "sim"},
	"hybrid":           {"-kernel", "lavamd", "-maxlanes", "4", "-eval", "hybrid"},
	"sor-sim":          {"-kernel", "sor", "-maxlanes", "8", "-eval", "sim"},
	"sor-hybrid":       {"-kernel", "sor", "-maxlanes", "16", "-eval", "hybrid"},
	"srad":             {"-kernel", "srad", "-maxlanes", "16", "-eval", "hybrid"},
	"wall-pruned":      {"-kernel", "sor", "-maxlanes", "8", "-form", "A", "-strategy", "wall-pruned"},
	"pareto":           {"-kernel", "sor", "-maxlanes", "8", "-strategy", "pareto"},
	"hillclimb":        {"-kernel", "sor", "-maxlanes", "16", "-strategy", "hillclimb", "-seed", "1", "-budget", "8"},
	"anneal":           {"-kernel", "sor", "-maxlanes", "16", "-strategy", "anneal", "-seed", "7", "-budget", "8"},
	"budget":           {"-kernel", "sor", "-maxlanes", "16", "-budget", "3"},
	"devices-model":    {"-kernel", "sor", "-maxlanes", "4", "-devices", "stratix-v-gsd8-edu,virtex-7-690t"},
	"devices-hybrid":   {"-kernel", "hotspot", "-maxlanes", "2", "-devices", "edu,virtex-7-690t", "-eval", "hybrid"},
	"devices-pareto-j": {"-kernel", "lavamd", "-maxlanes", "4", "-devices", "stratix-v-gsd8,virtex-7-690t", "-strategy", "pareto", "-j", "1"},
}

// TestRunGolden pins tytradse's complete stdout for each case in
// goldenCases against testdata/golden/<case>.out, so a refactor of the
// exploration stack shows up as a byte diff. Regenerate intentionally
// with
//
//	go test ./cmd/tytradse -run TestRunGolden -update
func TestRunGolden(t *testing.T) {
	for name, args := range goldenCases {
		t.Run(name, func(t *testing.T) {
			var out strings.Builder
			if err := run(args, &out); err != nil {
				t.Fatalf("tytradse %s: %v", strings.Join(args, " "), err)
			}
			path := filepath.Join("testdata", "golden", name+".out")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("tytradse %s: output drifted from %s; run with -update if intentional\n--- want\n%s\n--- got\n%s",
					strings.Join(args, " "), path, want, got)
			}
		})
	}
}
