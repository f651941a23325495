package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/diag"
	"repro/internal/elab"
	"repro/internal/kernels"
	"repro/internal/tir"
)

const badDir = "../../internal/tir/testdata/bad"

// TestGoldenDiagnostics pins the verifier's output — code, position and
// message — for every deliberately-broken module in the corpus. The
// .want files are the contract: a change that reorders, drops or
// rewords findings must update them consciously.
func TestGoldenDiagnostics(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(badDir, "*.tirl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no bad corpus (%v)", err)
	}
	for _, file := range files {
		base := filepath.Base(file)
		t.Run(base, func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(strings.TrimSuffix(file, ".tirl") + ".want")
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			l := check(base, string(src), nil)
			l.Sort()
			var got strings.Builder
			if err := l.WriteText(&got); err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("diagnostics drifted.\n--- got ---\n%s--- want ---\n%s", got.String(), want)
			}
		})
	}
}

// TestBadCorpusCoversCodes asserts the corpus exercises a representative
// spread of the stable codes, so a regression that silences a whole
// pass cannot hide behind passing goldens.
func TestBadCorpusCoversCodes(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join(badDir, "*.tirl"))
	seen := map[string]bool{}
	for _, file := range files {
		src, _ := os.ReadFile(file)
		for _, d := range check(filepath.Base(file), string(src), nil) {
			seen[d.Code] = true
		}
	}
	for _, code := range []string{
		"TIR001", "TIR011", "TIR012", "TIR013", "TIR017", "TIR019", "TIR020",
		"TIR023", "TIR024", "TIR025", "TIR026", "TIR035",
		"TIR040", "TIR042", "TIR043", "TIR044", "TIR047", "TIR048",
	} {
		if !seen[code] {
			t.Errorf("bad corpus exercises no %s finding", code)
		}
	}
}

func TestRunExitCodes(t *testing.T) {
	var out, errOut strings.Builder
	code, err := run([]string{filepath.Join(badDir, "multi.tirl")}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("errors should exit 1, got %d", code)
	}

	out.Reset()
	code, err = run([]string{filepath.Join(badDir, "paracc.tirl")}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("warnings alone should exit 0, got %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "TIR044") {
		t.Errorf("warnings not rendered:\n%s", out.String())
	}

	out.Reset()
	code, err = run([]string{"../../internal/tir/testdata/movavg.tirl"}, &out, &errOut)
	if err != nil || code != 0 {
		t.Errorf("clean module: code=%d err=%v\n%s", code, err, out.String())
	}
	if out.String() != "" {
		t.Errorf("clean module should render nothing, got:\n%s", out.String())
	}
}

func TestRunJSON(t *testing.T) {
	var out, errOut strings.Builder
	code, err := run([]string{"-json", filepath.Join(badDir, "multi.tirl")}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	var rep struct {
		Diagnostics diag.List `json:"diagnostics"`
		Errors      int       `json:"errors"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if rep.Errors != 4 || len(rep.Diagnostics) != 4 {
		t.Errorf("want 4 errors, got %d (%d findings)", rep.Errors, len(rep.Diagnostics))
	}
}

func TestRunCodesListing(t *testing.T) {
	var out, errOut strings.Builder
	code, err := run([]string{"-codes"}, &out, &errOut)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	for _, want := range []string{"TIR001", "TIR023", "TIR040", "TIR090"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-codes output missing %s", want)
		}
	}
}

// sorDesign elaborates the default SOR kernel.
func sorDesign(t *testing.T) *elab.Design {
	t.Helper()
	m, err := kernels.DefaultSOR().Module()
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(m)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeviceFitAcceptsRealKernel(t *testing.T) {
	mdl, err := costmodel.Calibrate(device.StratixVGSD8())
	if err != nil {
		t.Fatal(err)
	}
	if l := deviceFit(sorDesign(t), mdl); len(l) != 0 {
		t.Errorf("SOR on GSD8 should fit, got %v", l)
	}
}

func TestDeviceFitRejectsOversizedDesign(t *testing.T) {
	tiny := device.StratixVGSD8()
	tiny.Name = "tiny"
	tiny.Capacity = device.Resources{ALUTs: 10, Regs: 10, BRAM: 10, DSPs: 0}
	mdl, err := costmodel.Calibrate(tiny)
	if err != nil {
		t.Fatal(err)
	}
	l := deviceFit(sorDesign(t), mdl)
	if len(l) != 1 || l[0].Code != tir.CodeDeviceFit {
		t.Fatalf("want one TIR090 finding, got %v", l)
	}
	if !strings.Contains(l[0].Msg, "tiny") {
		t.Errorf("finding does not name the target: %s", l[0].Msg)
	}
	if !l.HasErrors() {
		t.Error("device-fit finding must be an error")
	}
}
