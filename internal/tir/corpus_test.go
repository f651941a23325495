package tir_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/elab"
	"repro/internal/tir"
)

// TestCorpus parses, elaborates and round-trips every .tirl file under
// testdata: the corpus doubles as user-facing surface-syntax examples,
// so it must stay accepted by the compiler front stage.
func TestCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.tirl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("corpus has only %d files", len(files))
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			name := strings.TrimSuffix(filepath.Base(path), ".tirl")
			m, err := tir.Parse(name, string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			// Every corpus design elaborates to a supported config.
			if _, err := elab.Elaborate(m); err != nil {
				t.Errorf("elaboration: %v", err)
			}
			// Round trip through the printer.
			m2, err := tir.Parse(name, m.String())
			if err != nil {
				t.Fatalf("printed form does not re-parse: %v", err)
			}
			if m.String() != m2.String() {
				t.Error("print/parse is not a fixed point")
			}
			if _, err := elab.Elaborate(m2); err != nil {
				t.Errorf("printed form does not elaborate: %v", err)
			}
		})
	}
}

// TestCorpusShapes pins the structural highlights each corpus file
// exists to demonstrate.
func TestCorpusShapes(t *testing.T) {
	load := func(name string) *tir.Module {
		t.Helper()
		src, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		m, err := tir.Parse(name, string(src))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	design := func(m *tir.Module) *elab.Design {
		t.Helper()
		d, err := elab.Elaborate(m)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	if d := design(load("parlanes.tirl")); d.Lanes() != 2 {
		t.Errorf("parlanes: %d lanes, want 2", d.Lanes())
	} else if cfg := d.Config(); cfg != tir.ConfigParPipes {
		t.Errorf("parlanes: config %v", cfg)
	}

	m := load("combblock.tirl")
	if cfg := design(m).Config(); cfg != tir.ConfigPipe {
		t.Errorf("combblock: config %v, want C1 (comb blocks stay inside the pipe)", cfg)
	}
	clamp := m.Func("clamp")
	if clamp == nil || clamp.Mode != tir.ModeComb {
		t.Fatal("combblock: missing comb function")
	}
	if !clamp.OutParams()["r"] {
		t.Error("combblock: clamp should drive %r")
	}

	fp := load("floatpipe.tirl")
	hasFloat := false
	for _, in := range fp.Func("f0").Body {
		if bi, ok := in.(*tir.BinInstr); ok && bi.Op.Info().Float {
			hasFloat = true
		}
	}
	if !hasFloat {
		t.Error("floatpipe: no float instructions parsed")
	}

	mv := load("movavg.tirl")
	if n := schedulelessMaxOffset(mv.Func("f0")); n != 1 {
		t.Errorf("movavg: max look-ahead %d, want 1", n)
	}
}

// schedulelessMaxOffset recomputes the look-ahead without the schedule
// package, independently of the code under test.
func schedulelessMaxOffset(f *tir.Function) int64 {
	var max int64
	for _, in := range f.Body {
		if o, ok := in.(*tir.OffsetInstr); ok && o.Offset > max {
			max = o.Offset
		}
	}
	return max
}
