package tir

import (
	"strings"
	"testing"

	"repro/internal/diag"
)

// TestBuilderBinTypeMismatch pins the builder's misuse contract: a Bin
// over operands of different types must not panic; the diagnostic is
// carried on the builder and returned from Module with the stable code.
func TestBuilderBinTypeMismatch(t *testing.T) {
	b := NewBuilder("mismatch")
	fb := b.Func("main", ModePipe)
	x := fb.InStream("x", UIntT(18), 8, PatternContiguous, 1)
	y := fb.Param("y", UIntT(24))
	fb.Bin(OpAdd, x, y) // ui18 + ui24: misuse
	_, err := b.Module()
	if err == nil {
		t.Fatal("Module() accepted a type-mismatched Bin")
	}
	l := diag.AsList(err, "XXX")
	if len(l) == 0 || l[0].Code != CodeBuilderType {
		t.Fatalf("diagnostics = %v, want leading %s", l, CodeBuilderType)
	}
	if !strings.Contains(err.Error(), "ui18 vs ui24") {
		t.Errorf("error %q does not name the operand types", err)
	}
}

// TestBuilderCleanModule guards the happy path around the new error
// plumbing: a well-typed builder module builds.
func TestBuilderCleanModule(t *testing.T) {
	b := NewBuilder("clean")
	fb := b.Func("main", ModePipe)
	x := fb.InStream("x", UIntT(18), 8, PatternContiguous, 1)
	out := fb.OutStream("res", UIntT(18), 8, PatternContiguous, 1)
	fb.Out(out, fb.Add(x, x))
	if _, err := b.Module(); err != nil {
		t.Fatalf("Module() = %v", err)
	}
}
