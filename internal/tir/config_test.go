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

// kernelHeader declares the two ports of @main and the pipe kernel
// @f0 that streams one into the other: the leaf every classified
// design below reaches.
const kernelHeader = `%mem_a = memobj ui8, size 16, space global, pattern CONT
%mem_b = memobj ui8, size 16, space global, pattern CONT
%str_a = strobj %mem_a, dir in, port main.a
%str_b = strobj %mem_b, dir out, port main.b
@main.a = addrSpace(12) ui8, !"istream", !"CONT", !0, !"str_a"
@main.b = addrSpace(12) ui8, !"ostream", !"CONT", !0, !"str_b"
define void @f0(ui8 %a, ui8 %b) pipe { out ui8 %b, %a }
`

func TestConfigClassification(t *testing.T) {
	const lane = "call @f0(@main.a, @main.b) pipe"
	cases := []struct {
		name string
		src  string
		want tir.Config
	}{
		{"pipe", `define void @main() { ` + lane + ` }`, tir.ConfigPipe},
		{"par-pipes", `define void @f1() par { ` + lane + `
			` + lane + ` }
			define void @main() { call @f1() par }`, tir.ConfigParPipes},
		{"coarse", `define void @fc() pipe { ` + lane + ` }
			define void @main() { call @fc() pipe }`, tir.ConfigCoarsePipe},
		{"par-coarse", `define void @ftop() pipe { ` + lane + ` }
			define void @f1() par { call @ftop() pipe
			call @ftop() pipe }
			define void @main() { call @f1() par }`, tir.ConfigParCoarse},
	}
	for _, c := range cases {
		m, err := tir.Parse(c.name, kernelHeader+c.src)
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
	const lane = "call @f0(@main.a, @main.b) pipe"
	src := `define void @f1() par { ` + lane + `
		` + lane + `
		` + lane + ` }
		define void @main() { call @f1() par }`
	m, err := tir.Parse("lanes", kernelHeader+src)
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
