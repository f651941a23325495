package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestVersionProbe(t *testing.T) {
	var out, errOut strings.Builder
	if code := realMain([]string{"-V=full"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if !strings.HasPrefix(out.String(), "tytralint version") {
		t.Errorf("unexpected -V=full output %q", out.String())
	}
}

func TestFlagsProbe(t *testing.T) {
	var out, errOut strings.Builder
	if code := realMain([]string{"-flags"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("unexpected -flags output %q", out.String())
	}
}

// TestOtherArgsPrintUsage: tytralint runs only under go vet, so package
// patterns and a bare invocation print the vettool usage and exit 2.
func TestOtherArgsPrintUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"./..."}, {"a.cfg", "b.cfg"}} {
		var out, errOut strings.Builder
		if code := realMain(args, &out, &errOut); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "go vet -vettool=") || out.Len() != 0 {
			t.Errorf("%q: stdout %q, stderr %q; want the usage on stderr", args, out.String(), errOut.String())
		}
	}
}

// goVet builds the tool into a temporary directory and runs
// go vet -vettool=<tool> on one fixture package, so the test drives the
// whole protocol: go vet probes the tool, then hands it a vet.cfg.
func goVet(t *testing.T, pkg string) (string, error) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the tool and runs go vet")
	}
	tool := filepath.Join(t.TempDir(), "tytralint")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command("go", "vet", "-vettool="+tool, pkg).CombinedOutput()
	return string(out), err
}

// TestStandaloneFindsViolation: the self-contained bad package's global
// rand call must fail the go vet run with the norandglobal finding.
func TestStandaloneFindsViolation(t *testing.T) {
	out, err := goVet(t, "./testdata/vet/bad")
	if err == nil {
		t.Errorf("go vet passed the bad package:\n%s", out)
	}
	if !strings.Contains(out, "bad.go:6:") || !strings.Contains(out, "call to rand.Intn uses the shared global source") {
		t.Errorf("go vet output lacks the rand finding:\n%s", out)
	}
}

// TestStandaloneCleanPackage: the self-contained good package passes.
func TestStandaloneCleanPackage(t *testing.T) {
	if out, err := goVet(t, "./testdata/vet/good"); err != nil {
		t.Errorf("go vet failed the good package: %v\n%s", err, out)
	}
}
