package hdl

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/kernels"
)

func TestEmitTestbenchSOR(t *testing.T) {
	spec := kernels.SORSpec{IM: 15, JM: 10, KM: 4, Lanes: 1}
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	full := spec.MakeInputs(2)
	mem, err := kernels.BindInputs(full, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Expected outputs from the simulator (bit-exact vs golden, already
	// proven in pipesim's tests).
	res := simulate(t, m, mem)
	expected := map[string][]int64{
		kernels.MemName("p_new", -1): res.Mem[kernels.MemName("p_new", -1)],
	}
	tb, err := EmitTestbench(elaborate(t, m), mem, expected, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"module tytra_top_sor_tb;",
		"tytra_top_sor dut",
		"$display(\"PASS: all outputs match\")",
		"main_p_mem[0]",
		"main_p_new_exp[0]",
		"out_valid",
	} {
		if !strings.Contains(tb, want) {
			t.Errorf("testbench missing %q", want)
		}
	}
	// All stimulus elements present.
	n := int(spec.GlobalSize())
	if !strings.Contains(tb, "main_p_mem["+strconv.Itoa(n-1)+"]") {
		t.Errorf("testbench missing last stimulus element %d", n-1)
	}
	// Balanced module/endmodule.
	if strings.Count(tb, "module ") != strings.Count(tb, "endmodule") {
		t.Error("unbalanced module/endmodule")
	}
}

func TestEmitTestbenchErrors(t *testing.T) {
	spec := kernels.SORSpec{IM: 15, JM: 10, KM: 4, Lanes: 1}
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	full := spec.MakeInputs(2)
	mem, err := kernels.BindInputs(full, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EmitTestbench(elaborate(t, m), nil, nil, 10); err == nil {
		t.Error("missing stimulus accepted")
	}
	if _, err := EmitTestbench(elaborate(t, m), mem, nil, 10); err == nil {
		t.Error("missing expectations accepted")
	}
	short := map[string][]int64{kernels.MemName("p_new", -1): {1, 2}}
	if _, err := EmitTestbench(elaborate(t, m), mem, short, 10); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestEmitTestbenchSkipsLocalChannels(t *testing.T) {
	// A coarse pipeline's inter-stage buffers need no stimulus: only
	// the external boundary appears in the bench. (Module built the same
	// way as pipesim's coarse tests.)
	spec := kernels.LavaMDSpec{Pairs: 16, Lanes: 1}
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	mem, _ := kernels.BindInputs(spec.MakeInputs(1), 1)
	res := simulate(t, m, mem)
	expected := map[string][]int64{
		kernels.MemName("pot", -1): res.Mem[kernels.MemName("pot", -1)],
		kernels.MemName("fx", -1):  res.Mem[kernels.MemName("fx", -1)],
	}
	tb, err := EmitTestbench(elaborate(t, m), mem, expected, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb, "main_fx_exp") || !strings.Contains(tb, "main_pot_exp") {
		t.Error("both outputs should be checked")
	}
}
