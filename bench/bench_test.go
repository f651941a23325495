package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkFile
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

type closingLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runCLI runs the benchmark in-process and parses its closing line.
func runCLI(t *testing.T, args ...string) closingLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line closingLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("closing line: %v\n%s", err, stdout.String())
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("bench %v: correct=%v failed=%d attempted=%d\n%s",
			args, line.Correct, line.Failed, line.Attempted, stdout.String())
	}
	return line
}

// checkNames asserts the closing line carries exactly the named metrics,
// each with its unit.
func checkNames(t *testing.T, line closingLine, defs []struct{ Name, Unit string }) {
	t.Helper()
	if len(line.Metrics) != len(defs) {
		t.Errorf("closing line has %d metrics, BENCHMARK.json names %d", len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
		}
	}
}

// TestWorkloadsSmall runs every workload at test size in both modes.
// The runs' own checks must pass (in the traced mode they include that
// the traced run reproduces the untraced run's points and report), the
// closing lines must name every metric BENCHMARK.json lists with its
// unit, and the traced layers must sum to the traced total.
func TestWorkloadsSmall(t *testing.T) {
	def := loadBenchmark(t)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, def.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			base := []string{"-workload", w.name, "-scale", "small", "-seconds", "0.2", "-workdir", dir}
			checkNames(t, runCLI(t, append(base, "-trace", "0")...), def.EndToEnd)

			out := filepath.Join(dir, "traced.json")
			checkNames(t, runCLI(t, append(base, "-trace", "1", "-out", out)...), def.PerLayer)
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var file resultFile
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatal(err)
			}
			m := file.Workloads[0].Metrics
			sum := m["dse.engine_self_s"].Value + m["dse.unattributed_s"].Value
			for _, name := range runLayers {
				sum += m[name+"_s"].Value
			}
			if total := m["bench.traced_total_s"].Value; total <= 0 || math.Abs(sum-total) > 1e-9*total {
				t.Errorf("layers sum to %v, traced total %v", sum, total)
			}
			setupLayer := "membw.build_s"
			if w.store == warmStore {
				setupLayer = "evalstore.load_models_s"
			}
			if m[setupLayer].Value <= 0 {
				t.Errorf("set-up layer %s reads %v", setupLayer, m[setupLayer].Value)
			}
		})
	}
}

// TestCompare checks that -compare passes equal result sets and fails a
// regression beyond the bound.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runS float64) string {
		file := resultFile{Workloads: []result{{Name: "model-sweep", Correct: true, Attempted: 1,
			Metrics: map[string]stat{"run_s": {Value: runS, Unit: "s", N: 5, Q1: runS, Q3: runS}}}}}
		data, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 1.0), write("same.json", 1.01), write("slow.json", 1.5)
	var out bytes.Buffer
	if regressed, err := compare("../BENCHMARK.json", a, same, &out); err != nil || regressed {
		t.Errorf("equal sets: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err := compare("../BENCHMARK.json", a, slow, &out); err != nil || !regressed ||
		!strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("50%% slower: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
}
