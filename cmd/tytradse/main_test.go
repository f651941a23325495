package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSweep(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-kernel", "sor", "-maxlanes", "8", "-form", "A"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"variant sweep", "lanes", "best variant", "walls"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunSweepCSV(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-kernel", "lavamd", "-maxlanes", "4", "-csv", "-target", "stratix-v-gsd8"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "lanes,ALUTs") {
		t.Error("CSV header missing")
	}
}

// TestRunEvalModes drives the three scorers over the same small
// sweep: sim mode reports the measured cycles behind the best variant,
// hybrid mode appends the calibration table, and the model-side sweep
// structure (walls in the title) survives in all three.
func TestRunEvalModes(t *testing.T) {
	args := []string{"-kernel", "hotspot", "-maxlanes", "4"}
	outputs := map[string]string{}
	for _, mode := range []string{"model", "sim", "hybrid"} {
		var out strings.Builder
		if err := run(append(args, "-eval", mode), &out); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		s := out.String()
		if !strings.Contains(s, "scored by "+mode) || !strings.Contains(s, "walls") {
			t.Errorf("%s: sweep title missing the scorer or walls:\n%s", mode, s)
		}
		if !strings.Contains(s, "best variant") {
			t.Errorf("%s: no best variant", mode)
		}
		outputs[mode] = s
	}
	if !strings.Contains(outputs["sim"], "scored by simulated cycles") {
		t.Error("sim output missing the measured-cycles line")
	}
	if !strings.Contains(outputs["hybrid"], "hybrid calibration") ||
		!strings.Contains(outputs["hybrid"], "model-CPKI") {
		t.Error("hybrid output missing the calibration table")
	}
	if strings.Contains(outputs["model"], "calibration") {
		t.Error("model output unexpectedly contains a calibration table")
	}
}

// TestRunErrors: each bad input is an error, refused before anything
// prints.
func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-kernel", "mystery"},
		{"-target", "nope"},
		{"-form", "Z"},
		{"-strategy", "clairvoyant"},
		{"-eval", "psychic"},
		{"-devices", " , "},
		{"-devices", "stratix-v-gsd8,atari-2600"},
		{"-devices", "stratix-v-gsd8,maia"}, // aliased duplicate
		{"-budget", "-1"},
		{"-budget", "-1", "-devices", "edu,virtex-7-690t"},
		{"-j", "-2"},
		{"-nki", "0"},
		{"-nki", "-5"},
		{"-modeleval", "tree"}, // one cost-model implementation: no switch
	}
	for i, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("case %d (%v): no error", i, args)
		}
		if out.Len() != 0 {
			t.Errorf("case %d (%v): printed before failing:\n%s", i, args, out.String())
		}
	}
}

// TestRunRejectsHugeLaneAxis: a lane axis above the instance bound, or
// one with no lane count at all, is an error before anything is built
// or calibrated, so nothing prints. Each lane count builds a module that
// materialises every lane: without the bound, -maxlanes 1000000 builds
// one per divisor of the NDRange and runs out of memory.
func TestRunRejectsHugeLaneAxis(t *testing.T) {
	for _, args := range [][]string{
		{"-kernel", "sor", "-maxlanes", "1000000"},
		{"-kernel", "sor", "-maxlanes", "1000000", "-devices", "edu,virtex-7-690t"},
		{"-kernel", "sor", "-maxlanes", "0"},
		{"-kernel", "sor", "-maxlanes", "0", "-devices", "edu,virtex-7-690t"},
	} {
		var out strings.Builder
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "-maxlanes "+args[3]+":") {
			t.Errorf("%v: got %v, want a -maxlanes error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed before rejecting:\n%s", args, out.String())
		}
	}
}

// TestRunUnknownTargetListsNames: the registry-backed lookup must name
// the valid targets instead of leaving the user to guess (the old
// parser silently special-cased "edu" and then listed only two names).
func TestRunUnknownTargetListsNames(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-target", "cyclone-ii"}, &out)
	if err == nil {
		t.Fatal("unknown target accepted")
	}
	for _, want := range []string{"stratix-v-gsd8", "virtex-7-690t", "stratix-v-gsd8-edu"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %q", err, want)
		}
	}
}

// TestRunEduTargetViaRegistry: both spellings of the educational
// target route through the registry (the old code special-cased them
// before the parser).
func TestRunEduTargetViaRegistry(t *testing.T) {
	for _, name := range []string{"edu", "stratix-v-gsd8-edu"} {
		var out strings.Builder
		if err := run([]string{"-maxlanes", "2", "-target", name}, &out); err != nil {
			t.Fatalf("-target %s: %v", name, err)
		}
		if !strings.Contains(out.String(), "stratix-v-gsd8-edu") {
			t.Errorf("-target %s: output does not name the resolved target", name)
		}
	}
}

// sweepBlock extracts the per-device output block — the sweep table
// through the roofline line — for one device from a run's output.
func sweepBlock(t *testing.T, out, device string) string {
	t.Helper()
	title := "sor variant sweep on " + device
	start := strings.Index(out, title)
	if start < 0 {
		t.Fatalf("output has no sweep table for %s:\n%s", device, out)
	}
	rest := out[start:]
	roof := strings.Index(rest, "roofline: ")
	if roof < 0 {
		t.Fatalf("no roofline line after the %s table:\n%s", device, rest)
	}
	end := roof + strings.IndexByte(rest[roof:], '\n') + 1
	return rest[:end]
}

// TestRunDevicesMatchesSingleDeviceRuns is the acceptance check for
// the cross-device sweep: each device's rows in a -devices run are
// bit-identical to the corresponding single -target run, at any
// worker count.
func TestRunDevicesMatchesSingleDeviceRuns(t *testing.T) {
	shelf := []string{"stratix-v-gsd8", "virtex-7-690t"}
	args := []string{"-kernel", "sor", "-maxlanes", "16", "-strategy", "pareto",
		"-devices", strings.Join(shelf, ",")}
	var multiSerial, multiParallel strings.Builder
	if err := run(append(args, "-j", "1"), &multiSerial); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-j", "8"), &multiParallel); err != nil {
		t.Fatal(err)
	}
	if multiSerial.String() != multiParallel.String() {
		t.Errorf("-j=8 cross-device output differs from -j=1:\n--- j=1\n%s\n--- j=8\n%s",
			multiSerial.String(), multiParallel.String())
	}
	for _, dev := range shelf {
		var single strings.Builder
		if err := run([]string{"-kernel", "sor", "-maxlanes", "16", "-strategy", "pareto",
			"-target", dev}, &single); err != nil {
			t.Fatal(err)
		}
		got := sweepBlock(t, multiSerial.String(), dev)
		want := sweepBlock(t, single.String(), dev)
		if got != want {
			t.Errorf("%s: cross-device block differs from the single-device run:\n--- devices\n%s\n--- single\n%s",
				dev, got, want)
		}
	}
	s := multiSerial.String()
	for _, want := range []string{"cross-device summary", "pareto frontier", "best overall:", "device="} {
		if !strings.Contains(s, want) {
			t.Errorf("cross-device output missing %q:\n%s", want, s)
		}
	}
}

// TestRunDevicesHybrid: the calibration cross-check table labels its
// rows with the device axis.
func TestRunDevicesHybrid(t *testing.T) {
	var out strings.Builder
	args := []string{"-kernel", "hotspot", "-maxlanes", "2",
		"-devices", "edu,virtex-7-690t", "-eval", "hybrid"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "hybrid calibration") {
		t.Fatalf("no calibration table:\n%s", s)
	}
	if !strings.Contains(s, "device=stratix-v-gsd8-edu") || !strings.Contains(s, "device=virtex-7-690t") {
		t.Errorf("calibration rows not labelled per device:\n%s", s)
	}
}

// TestRunParallelMatchesSerial is the acceptance check for -j: the
// engine is deterministic, so -j=8 must print byte-identical output
// (same best variant included) to -j=1.
func TestRunParallelMatchesSerial(t *testing.T) {
	var serial, parallel strings.Builder
	args := []string{"-kernel", "sor", "-maxlanes", "8", "-form", "A", "-strategy", "exhaustive"}
	if err := run(append(args, "-j", "1"), &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-j", "8"), &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("-j=8 output differs from -j=1:\n--- j=1\n%s\n--- j=8\n%s", serial.String(), parallel.String())
	}
	if !strings.Contains(serial.String(), "best variant") {
		t.Error("no best variant selected")
	}
}

// TestRunAdaptiveStrategies: the adaptive strategies print the sweep
// of what they evaluated plus the search trajectory and provenance,
// find the exhaustive best on the default SOR space, and are
// byte-deterministic for a fixed seed at any -j.
func TestRunAdaptiveStrategies(t *testing.T) {
	var full strings.Builder
	base := []string{"-kernel", "sor", "-maxlanes", "16"}
	if err := run(base, &full); err != nil {
		t.Fatal(err)
	}
	bestLine := func(s string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "best variant:") {
				return line
			}
		}
		return ""
	}
	for _, strategy := range []string{"hillclimb", "anneal"} {
		args := append(base, "-strategy", strategy, "-seed", "1", "-budget", "24")
		var serial, parallel strings.Builder
		if err := run(append(args, "-j", "1"), &serial); err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if err := run(append(args, "-j", "8"), &parallel); err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if serial.String() != parallel.String() {
			t.Errorf("%s: -j=8 output differs from -j=1:\n--- j=1\n%s\n--- j=8\n%s",
				strategy, serial.String(), parallel.String())
		}
		s := serial.String()
		for _, want := range []string{"search trajectory", "search: " + strategy,
			"budget=24", "seed=1", "best-EKIT/s"} {
			if !strings.Contains(s, want) {
				t.Errorf("%s output missing %q:\n%s", strategy, want, s)
			}
		}
		if b := bestLine(s); b == "" || b != bestLine(full.String()) {
			t.Errorf("%s best %q != exhaustive best %q", strategy, b, bestLine(full.String()))
		}
	}
	// Non-adaptive, unbudgeted runs keep their classic output.
	if strings.Contains(full.String(), "search trajectory") {
		t.Error("exhaustive run unexpectedly printed a search trajectory")
	}
}

// TestRunBudgetedExhaustive: -budget applies to any strategy and is
// reported in the provenance line.
func TestRunBudgetedExhaustive(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-kernel", "sor", "-maxlanes", "16", "-budget", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"search: exhaustive evaluated 3 of 16 points", "stop=budget", "budget=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunStrategies: wall-pruned truncates the sweep at the walls but
// keeps the best variant; pareto appends the frontier line.
func TestRunStrategies(t *testing.T) {
	var full, pruned, pareto strings.Builder
	args := []string{"-kernel", "sor", "-maxlanes", "8", "-form", "A"}
	if err := run(args, &full); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-strategy", "wall-pruned"), &pruned); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-strategy", "pareto"), &pareto); err != nil {
		t.Fatal(err)
	}
	bestLine := func(s string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "best variant:") {
				return line
			}
		}
		return ""
	}
	if b := bestLine(pruned.String()); b == "" || b != bestLine(full.String()) {
		t.Errorf("wall-pruned best %q != exhaustive best %q", b, bestLine(full.String()))
	}
	if len(pruned.String()) >= len(full.String()) {
		t.Error("wall-pruned did not truncate the sweep")
	}
	if !strings.Contains(pareto.String(), "pareto frontier") {
		t.Error("pareto output missing the frontier line")
	}
}

// TestRunCacheWarmColdIdentical: running twice against the same -cache
// directory must print byte-identical output — the warm run answers
// every calibration, estimate and measurement from the store, and none
// of that may leak into what the user sees. Also covers the cross-device
// path and a bounded adaptive search (same seed → same trajectory).
func TestRunCacheWarmColdIdentical(t *testing.T) {
	cases := map[string][]string{
		"model":   {"-kernel", "sor", "-maxlanes", "8", "-eval", "model"},
		"sim":     {"-kernel", "hotspot", "-maxlanes", "4", "-eval", "sim"},
		"hybrid":  {"-kernel", "hotspot", "-maxlanes", "4", "-eval", "hybrid", "-j", "4"},
		"devices": {"-kernel", "sor", "-maxlanes", "4", "-devices", "stratix-v-gsd8-edu,virtex-7-690t"},
		"anneal":  {"-kernel", "sor", "-maxlanes", "8", "-strategy", "anneal", "-budget", "6", "-seed", "7"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			args := append(args, "-cache", dir)
			var cold, warm strings.Builder
			if err := run(args, &cold); err != nil {
				t.Fatalf("cold: %v", err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) == 0 {
				t.Fatal("cold run wrote nothing into the cache directory")
			}
			if err := run(args, &warm); err != nil {
				t.Fatalf("warm: %v", err)
			}
			if cold.String() != warm.String() {
				t.Errorf("warm output differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s",
					cold.String(), warm.String())
			}
		})
	}
}

// TestRunCacheCorruptionRecovers: a cache directory full of damaged
// records must not change the output or fail the run.
func TestRunCacheCorruptionRecovers(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-kernel", "hotspot", "-maxlanes", "4", "-eval", "hybrid", "-cache", dir}
	var cold strings.Builder
	if err := run(args, &cold); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no records written (%v)", err)
	}
	for _, name := range names {
		if err := os.WriteFile(name, []byte("ruined"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var recovered strings.Builder
	if err := run(args, &recovered); err != nil {
		t.Fatalf("run over corrupt cache: %v", err)
	}
	if cold.String() != recovered.String() {
		t.Error("output changed after cache corruption")
	}
}
