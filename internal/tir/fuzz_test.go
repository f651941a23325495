package tir_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/elab"
	"repro/internal/tir"
)

// corpusSeeds feeds every .tirl file under testdata (good corpus and
// bad corpus alike) plus deliberate mutations of each into the fuzzer,
// so it starts from inputs that exercise deep parser and checker paths
// rather than from noise.
func corpusSeeds(f *testing.F) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.tirl"))
	if err != nil {
		f.Fatal(err)
	}
	bad, err := filepath.Glob(filepath.Join("testdata", "bad", "*.tirl"))
	if err != nil {
		f.Fatal(err)
	}
	paths = append(paths, bad...)
	if len(paths) == 0 {
		f.Fatal("no corpus seeds under testdata")
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
		// Cheap structural mutations: truncation, duplication, token
		// damage. The engine mutates further from these.
		s := string(src)
		f.Add(s[:len(s)/2])
		f.Add(s + s)
		for _, frag := range []string{"@main", "!0", "ui18", "add"} {
			f.Add(strings.Replace(s, frag, "?", 1))
		}
	}
}

// rejectedSeeds are modules the parser accepts and Check rejects whose
// call hierarchy elaboration must answer with an error: no @main, an
// unknown callee, a comb call with more arguments than its callee has
// parameters, and a call cycle.
var rejectedSeeds = []string{
	`define void @f0(ui18 %a) pipe {
  ui18 %1 = add ui18 %a, 1
}
`,
	`define void @main() {
  call @nope() pipe
}
`,
	`define void @c(ui18 %x, ui18 %y) comb {
  out ui18 %y, %x
}
define void @f0(ui18 %a) pipe {
  call @c(%a, %b, %z) comb
}
define void @main() {
  call @f0(@main.a) pipe
}
`,
	`define void @f0() pipe {
  call @f1() pipe
}
define void @f1() pipe {
  call @f0() pipe
}
define void @main() {
  call @f0() pipe
}
`,
}

// FuzzValidate asserts the whole front stage — lexer, parser, Check,
// Analyze and elaboration — never panics, whatever bytes arrive.
// Parser-rejected input must come back as an error, parser-accepted
// input must flow through both checking layers and elaboration without
// crashing, and elaboration must accept exactly what Analyze accepts,
// bar an instance count that overflows or a datapath it cannot
// schedule.
func FuzzValidate(f *testing.F) {
	corpusSeeds(f)
	for _, src := range rejectedSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := tir.ParseOnly("fuzz.tirl", src)
		if err != nil {
			if m != nil {
				t.Errorf("ParseOnly returned both a module and error %v", err)
			}
			return
		}
		// Check and Analyze must always terminate and never panic, even
		// on degenerate accepted modules.
		_ = m.Check()
		analyzed := m.Analyze()
		_ = m.Validate()
		d, err := elab.Elaborate(m)
		switch {
		case analyzed.HasErrors() && err == nil:
			t.Error("Elaborate accepted a module Analyze rejects")
		case err == nil && d.Lanes() < 1:
			t.Errorf("Lanes = %d, want at least 1", d.Lanes())
		case err == nil:
			_ = d.Config()
		}
	})
}
