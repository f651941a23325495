package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden tytracc outputs")

// TestRunGolden pins tytracc's report and emitted Verilog for every
// built-in kernel at lanes 1, 2 and 4 with -synth -hdl, against
// testdata/golden/<kernel>-<lanes>.out and .v. The report's Verilog
// path is the test's temporary directory, so it is rewritten to
// "out.v" before comparing. Regenerate intentionally with
//
//	go test ./cmd/tytracc -run TestRunGolden -update
func TestRunGolden(t *testing.T) {
	for _, kernel := range []string{"sor", "hotspot", "lavamd", "srad"} {
		for _, lanes := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s-%d", kernel, lanes)
			t.Run(name, func(t *testing.T) {
				hdl := filepath.Join(t.TempDir(), "out.v")
				args := []string{"-kernel", kernel, "-lanes", fmt.Sprint(lanes), "-synth", "-hdl", hdl}
				var out strings.Builder
				if err := run(args, &out); err != nil {
					t.Fatalf("tytracc %s: %v", strings.Join(args, " "), err)
				}
				verilog, err := os.ReadFile(hdl)
				if err != nil {
					t.Fatal(err)
				}
				report := strings.ReplaceAll(out.String(), hdl, "out.v")
				base := filepath.Join("testdata", "golden", name)
				checkGolden(t, base+".out", report)
				checkGolden(t, base+".v", string(verilog))
			})
		}
	}
}

// TestTestbenchGolden pins the self-checking testbench -tb writes for
// every built-in kernel at lanes 1, 2 and 4 by its SHA-256, in
// testdata/golden/tb.sha256: the stimulus and the expected outputs
// pipesim derives, and the design hdl instantiates, so a change to
// either moves a hash. The hotspot testbenches are ~55 MB each, too
// large to commit. Regenerate intentionally with
//
//	go test ./cmd/tytracc -run TestTestbenchGolden -update
func TestTestbenchGolden(t *testing.T) {
	var got strings.Builder
	for _, kernel := range []string{"sor", "hotspot", "lavamd", "srad"} {
		for _, lanes := range []int{1, 2, 4} {
			tb := filepath.Join(t.TempDir(), "tb.v")
			args := []string{"-kernel", kernel, "-lanes", fmt.Sprint(lanes), "-tb", tb}
			var out strings.Builder
			if err := run(args, &out); err != nil {
				t.Fatalf("tytracc %s: %v", strings.Join(args, " "), err)
			}
			f, err := os.Open(tb)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			_, err = io.Copy(h, f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%x  %s-%d_tb.v\n", h.Sum(nil), kernel, lanes)
		}
	}
	checkGolden(t, filepath.Join("testdata", "golden", "tb.sha256"), got.String())
}

// checkGolden compares got with the golden file at path, or rewrites
// the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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
		t.Errorf("output drifted from %s; run with -update if intentional\n--- want\n%s\n--- got\n%s", path, want, got)
	}
}
