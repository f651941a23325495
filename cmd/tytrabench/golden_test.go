package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden tytrabench output")

// speedRow matches the estimator-speed row of §VI-A that times this
// implementation: its two cells are wall-clock readings.
var speedRow = regexp.MustCompile(`(?m)^this implementation .*$`)

// TestRunGolden pins `tytrabench -exp all` against
// testdata/golden/all.out, every table of the paper's regeneration
// byte for byte except the timed cells of the estimator-speed row,
// which are masked on both sides. Regenerate intentionally with
//
//	go test ./cmd/tytrabench -run TestRunGolden -update
func TestRunGolden(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "all"}, &out); err != nil {
		t.Fatal(err)
	}
	if !speedRow.MatchString(out.String()) {
		t.Fatal("no estimator-speed row to mask")
	}
	got := speedRow.ReplaceAllString(out.String(), "this implementation     <timing masked>")
	path := filepath.Join("testdata", "golden", "all.out")
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
		t.Errorf("tytrabench -exp all drifted from %s; run with -update if intentional\n--- want\n%s\n--- got\n%s", path, want, got)
	}
}
