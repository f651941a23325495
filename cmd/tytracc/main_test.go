package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBuiltinKernel(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-kernel", "sor", "-lanes", "2", "-synth"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Cost report", "EKIT", "Estimated vs synthesised", "% error"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFromFileAndEmitHDL(t *testing.T) {
	dir := t.TempDir()
	src := `
%mem_x = memobj ui16, size 64, space global, pattern CONT
%mem_y = memobj ui16, size 64, space global, pattern CONT
%str_x = strobj %mem_x, dir in, port main.x
%str_y = strobj %mem_y, dir out, port main.y
@main.x = addrSpace(12) ui16, !"istream", !"CONT", !0, !"str_x"
@main.y = addrSpace(12) ui16, !"ostream", !"CONT", !0, !"str_y"
define void @f0(ui16 %x, ui16 %y) pipe {
  ui16 %d = mul ui16 %x, 5
  out ui16 %y, %d
}
define void @main() {
  call @f0(@main.x, @main.y) pipe
}
`
	tirl := filepath.Join(dir, "double.tirl")
	if err := os.WriteFile(tirl, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	hdl := filepath.Join(dir, "out.v")
	var out strings.Builder
	if err := run([]string{"-hdl", hdl, tirl}, &out); err != nil {
		t.Fatal(err)
	}
	v, err := os.ReadFile(hdl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(v), "module tytra_f0_dp") {
		t.Error("emitted Verilog missing datapath module")
	}
}

// TestCacheWarmMatchesCold: with -cache, the cold run archives the
// target's calibrated models in the evaluation store and prints exactly
// what a run without the store prints; the warm run reads them back and
// prints the same bytes again. A store holding another target's models
// is a miss for this one, not an error.
func TestCacheWarmMatchesCold(t *testing.T) {
	dir := t.TempDir()
	runOut := func(args ...string) string {
		t.Helper()
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatalf("tytracc %v: %v", args, err)
		}
		return out.String()
	}
	plain := runOut("-kernel", "lavamd")
	cold := runOut("-kernel", "lavamd", "-cache", dir)
	if files, _ := filepath.Glob(filepath.Join(dir, "models-*")); len(files) != 1 {
		t.Fatalf("the cold run archived %d models records, want 1", len(files))
	}
	warm := runOut("-kernel", "lavamd", "-cache", dir)
	if cold != plain || warm != cold {
		t.Errorf("outputs differ:\n--- no cache\n%s\n--- cold\n%s\n--- warm\n%s", plain, cold, warm)
	}

	other := runOut("-kernel", "lavamd", "-target", "virtex-7-690t", "-cache", dir)
	if want := runOut("-kernel", "lavamd", "-target", "virtex-7-690t"); other != want {
		t.Errorf("another target's run against the store:\n%s\nwant\n%s", other, want)
	}
}

// sorFile is the one-lane SOR design in TyTra-IR surface syntax.
var sorFile = filepath.Join("..", "..", "internal", "kernels", "testdata", "sor_1lane.tirl")

// TestRunErrors: each bad input is an error, refused before anything
// prints.
func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                    // no input
		{"-kernel", "mystery"},                // unknown kernel
		{"-target", "nope", "-kernel", "sor"}, // unknown target
		{"-form", "Z", "-kernel", "sor"},      // unknown form
		{"/does/not/exist.tirl"},              // missing file
		{"a.tirl", "b.tirl"},                  // too many args
		{"-kernel", "sor", "-lanes", "7"},     // does not divide the NDRange
		{"-kernel", "sor", "-lanes", "0"},
		// Divides hotspot's 261,888 items but exceeds the lanes a
		// design may materialise.
		{"-kernel", "hotspot", "-lanes", "2816"},
		// A file fixes its own lane count.
		{"-lanes", "4", sorFile},
		{"-kernel", "sor", "-nki", "0"},
		{"-kernel", "sor", "-nki", "-5"},
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

func TestTestbenchEmission(t *testing.T) {
	dir := t.TempDir()
	tb := filepath.Join(dir, "sor_tb.v")
	var out strings.Builder
	if err := run([]string{"-kernel", "sor", "-tb", tb}, &out); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(tb)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"module tytra_top_sor_tb;", "PASS: all outputs match"} {
		if !strings.Contains(string(src), want) {
			t.Errorf("testbench missing %q", want)
		}
	}
	// -tb without -kernel is refused before anything runs: nothing is
	// calibrated or printed, and -hdl writes no Verilog.
	hdl := filepath.Join(dir, "sor.v")
	var refused strings.Builder
	if err := run([]string{"-tb", tb, "-hdl", hdl, sorFile}, &refused); err == nil {
		t.Error("-tb without -kernel accepted")
	}
	if refused.Len() != 0 {
		t.Errorf("-tb without -kernel ran before refusing:\n%s", refused.String())
	}
	if _, err := os.Stat(hdl); !os.IsNotExist(err) {
		t.Errorf("-tb without -kernel wrote %s (%v)", hdl, err)
	}
}

// TestRunRejectsPortArgs: a module whose seq function @g passes its own
// parameters to a pipe call is rejected with TIR040 before anything is
// costed or synthesised, as tytravet and every back end reject it.
func TestRunRejectsPortArgs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.tirl")
	src := `%mem_a = memobj ui16, size 64, space global, pattern CONT
%mem_b = memobj ui16, size 64, space global, pattern CONT
%str_a = strobj %mem_a, dir in, port main.a
%str_b = strobj %mem_b, dir out, port main.b
@main.a = addrSpace(12) ui16, !"istream", !"CONT", !0, !"str_a"
@main.b = addrSpace(12) ui16, !"ostream", !"CONT", !0, !"str_b"
define void @f0(ui16 %a, ui16 %b) pipe {
  ui16 %x = add ui16 %a, 1
  out ui16 %b, %x
}
define void @g(ui16 %a, ui16 %b) seq {
  call @f0(%a, %b) pipe
}
define void @main() {
  call @g(@main.a, @main.b) seq
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-synth", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "TIR040") {
		t.Errorf("tytracc -synth: got %v, want a TIR040 error", err)
	}
	if strings.Contains(out.String(), "Estimated vs synthesised") {
		t.Errorf("rejected module was synthesised:\n%s", out.String())
	}
}

// TestRunRejectsUnexecutableShapes: the five call structures the
// pipeline cannot execute, from the bad corpus, are rejected with their
// code plain, with -synth and with -hdl, and no Verilog is written.
func TestRunRejectsUnexecutableShapes(t *testing.T) {
	for name, code := range map[string]string{
		"rootpipe": "TIR047", "emptypipe": "TIR047", "seqcomb": "TIR047", "pipepar": "TIR047", "combreads": "TIR048",
	} {
		path := filepath.Join("..", "..", "internal", "tir", "testdata", "bad", name+".tirl")
		hdl := filepath.Join(t.TempDir(), "out.v")
		for _, args := range [][]string{{path}, {"-synth", path}, {"-hdl", hdl, path}} {
			var out strings.Builder
			if err := run(args, &out); err == nil || !strings.Contains(err.Error(), code) {
				t.Errorf("tytracc %v: got %v, want a %s error", args, err, code)
			}
			if out.Len() != 0 {
				t.Errorf("tytracc %v printed a report for a rejected module:\n%s", args, out.String())
			}
		}
		if _, err := os.Stat(hdl); !os.IsNotExist(err) {
			t.Errorf("%s: Verilog written for a rejected module (%v)", name, err)
		}
	}
}
