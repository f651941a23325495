package tir_test

import (
	"testing"

	"repro/internal/elab"
	"repro/internal/tir"
)

// The tests in this file read a module's Fig 7 configuration and lane
// count, which elaboration (internal/elab) derives; elab imports tir, so
// they live in the external test package.

func TestParseFullModule(t *testing.T) {
	m, err := tir.Parse("sor", tir.SorIR)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.MemObjects) != 3 || len(m.Streams) != 3 || len(m.Ports) != 3 {
		t.Errorf("manage-IR counts: %d mem, %d stream, %d port",
			len(m.MemObjects), len(m.Streams), len(m.Ports))
	}
	f0 := m.Func("f0")
	if f0 == nil || f0.Mode != tir.ModePipe {
		t.Fatal("f0 missing or wrong mode")
	}
	if len(f0.Body) != 11 {
		t.Errorf("f0 has %d instructions, want 11", len(f0.Body))
	}
	d, err := elab.Elaborate(m)
	if err != nil {
		t.Fatal(err)
	}
	if cfg := d.Config(); cfg != tir.ConfigPipe {
		t.Errorf("config = %v", cfg)
	}
}

func TestConfigClassification(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want tir.Config
	}{
		{"pipe", `define void @f0() pipe { ui8 %x = const ui8 1 }
			define void @main() { call @f0() pipe }`, tir.ConfigPipe},
		{"par-pipes", `define void @f0() pipe { ui8 %x = const ui8 1 }
			define void @f1() par { call @f0() pipe
			call @f0() pipe }
			define void @main() { call @f1() par }`, tir.ConfigParPipes},
		{"coarse", `define void @fa() pipe { ui8 %x = const ui8 1 }
			define void @f0() pipe { call @fa() pipe }
			define void @main() { call @f0() pipe }`, tir.ConfigCoarsePipe},
		{"par-coarse", `define void @fa() pipe { ui8 %x = const ui8 1 }
			define void @ftop() pipe { call @fa() pipe }
			define void @f1() par { call @ftop() pipe
			call @ftop() pipe }
			define void @main() { call @f1() par }`, tir.ConfigParCoarse},
	}
	for _, c := range cases {
		m, err := tir.Parse(c.name, c.src)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		d, err := elab.Elaborate(m)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := d.Config(); got != c.want {
			t.Errorf("%s: classified %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLanes(t *testing.T) {
	src := `define void @f0() pipe { ui8 %x = const ui8 1 }
		define void @f1() par { call @f0() pipe
		call @f0() pipe
		call @f0() pipe }
		define void @main() { call @f1() par }`
	m, err := tir.Parse("lanes", src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Lanes(); got != 3 {
		t.Errorf("Lanes() = %d, want 3", got)
	}
}
