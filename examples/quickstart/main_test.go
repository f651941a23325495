package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden output")

// TestRunGolden pins the example's complete stdout against
// testdata/golden.out. Regenerate intentionally with
//
//	go test ./examples/quickstart -run TestRunGolden -update
func TestRunGolden(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/golden.out"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
		t.Errorf("output drifted from %s; run with -update if intentional\n--- want\n%s\n--- got\n%s", path, want, got)
	}
}
