package hdl

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/elab"
	"repro/internal/kernels"
	"repro/internal/tir"
)

func emitSOR(t *testing.T, lanes int) string {
	t.Helper()
	m, err := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: lanes}.Module()
	if err != nil {
		t.Fatal(err)
	}
	src, err := Emit(elaborate(t, m))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestEmitSORStructure(t *testing.T) {
	src := emitSOR(t, 1)
	for _, want := range []string{
		"module tytra_f0_dp",
		"module tytra_f0_sc",
		"module tytra_top_sor",
		"module tytra_offset_window",
		"acc_sorErrAcc",
		"tytra_offset_window #(.WIDTH(18), .DEPTH(301))", // ±150 k-offset window
		"out_valid",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated Verilog missing %q", want)
		}
	}
}

func TestEmitMultiLaneReplication(t *testing.T) {
	src := emitSOR(t, 4)
	if n := strings.Count(src, "tytra_f0_sc u_lane_"); n != 4 {
		t.Errorf("found %d lane instances, want 4", n)
	}
	// Each lane is wired to its own ports.
	for _, port := range []string{"p_in_main_p0", "p_in_main_p3", "p_out_main_p_new0", "p_out_main_p_new3"} {
		if !strings.Contains(src, port) {
			t.Errorf("missing lane port %s", port)
		}
	}
	// The datapath module itself is emitted once (replication is
	// structural, not textual).
	if n := strings.Count(src, "module tytra_f0_dp"); n != 1 {
		t.Errorf("datapath module emitted %d times, want 1", n)
	}
}

func TestEmitDeterministic(t *testing.T) {
	a := emitSOR(t, 2)
	b := emitSOR(t, 2)
	if a != b {
		t.Error("emission is not deterministic")
	}
}

func TestEmitAllKernels(t *testing.T) {
	for _, spec := range []kernels.Spec{kernels.DefaultSOR(), kernels.DefaultHotspot(), kernels.DefaultLavaMD()} {
		m, err := spec.Module()
		if err != nil {
			t.Fatal(err)
		}
		src, err := Emit(elaborate(t, m))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		if !strings.Contains(src, "module tytra_top_"+spec.Name()) {
			t.Errorf("%s: missing top module", spec.Name())
		}
		// Balanced module/endmodule pairs.
		mods := strings.Count(src, "\nmodule ") + strings.Count(src, "// ---- TyTra primitive cores ----")
		ends := strings.Count(src, "endmodule")
		if mods < 3 || ends < 3 {
			t.Errorf("%s: implausibly few modules (%d/%d)", spec.Name(), mods, ends)
		}
	}
}

func TestEmitBalancedDelimiters(t *testing.T) {
	src := emitSOR(t, 1)
	if b, e := strings.Count(src, "begin"), strings.Count(src, "end"); e < b {
		t.Errorf("unbalanced begin/end: %d begin, %d end", b, e)
	}
	if o, c := strings.Count(src, "("), strings.Count(src, ")"); o != c {
		t.Errorf("unbalanced parentheses: %d open, %d close", o, c)
	}
	modCount := strings.Count(src, "\nmodule ")
	endCount := strings.Count(src, "\nendmodule")
	if modCount != endCount {
		t.Errorf("%d module headers vs %d endmodule", modCount, endCount)
	}
}

func TestEmitNoUndeclaredDatapathRefs(t *testing.T) {
	// Every wire/reg referenced in an assignment of the datapath module
	// must be declared in it (a light lint standing in for a real
	// elaborator).
	src := emitSOR(t, 1)
	start := strings.Index(src, "module tytra_f0_dp")
	end := strings.Index(src[start:], "endmodule")
	body := src[start : start+end]

	declared := map[string]bool{"clk": true, "rst": true, "in_valid": true, "out_valid": true, "valid_r": true}
	declRe := regexp.MustCompile(`(?m)(?:input|output)?\s*(?:wire|reg)\s*(?:\[[^\]]+\])?\s*(\w+)`)
	for _, m := range declRe.FindAllStringSubmatch(body, -1) {
		declared[m[1]] = true
	}
	identRe := regexp.MustCompile(`\b[a-zA-Z_]\w*\b`)
	keywords := map[string]bool{
		"module": true, "endmodule": true, "input": true, "output": true,
		"wire": true, "reg": true, "assign": true, "always": true, "posedge": true,
		"begin": true, "end": true, "if": true, "else": true, "const": true,
		"signed": true, "clk": true, "rst": true, "d1": true,
	}
	for _, line := range strings.Split(body, "\n") {
		if !strings.Contains(line, "=") || strings.Contains(line, "module") {
			continue
		}
		for _, id := range identRe.FindAllString(line, -1) {
			if keywords[id] || declared[id] {
				continue
			}
			if regexp.MustCompile(`^\d`).MatchString(id) {
				continue
			}
			t.Errorf("undeclared identifier %q in line %q", id, strings.TrimSpace(line))
		}
	}
}

func TestEmitCombBlock(t *testing.T) {
	b := tir.NewBuilder("combo")
	ty := tir.UIntT(16)
	cb := b.Func("scale", tir.ModeComb)
	x := cb.Param("x", ty)
	r := cb.Param("r", ty)
	cb.Out(r, cb.MulImm(x, 5))

	f0 := b.Func("f0", tir.ModePipe)
	a := f0.Param("a", ty)
	q := f0.Param("q", ty)
	v := tir.Value{Op: tir.Reg("scaled"), Ty: ty}
	f0.CallOperands("scale", tir.ModeComb, a.Op, tir.Reg("scaled"))
	f0.Out(q, f0.Add(v, a))

	main := b.Func("main", tir.ModeSeq)
	pa := b.GlobalPort("main", "a", ty, 64, tir.DirIn, tir.PatternContiguous, 1)
	pq := b.GlobalPort("main", "q", ty, 64, tir.DirOut, tir.PatternContiguous, 1)
	main.CallOperands("f0", tir.ModePipe, pa, pq)

	src, err := Emit(elaborate(t, b.MustModule()))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"module tytra_scale",
		"inlined comb block @scale",
		"tytra_scale u_scale_",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q", want)
		}
	}
}

// TestEmitRejectsInvalidModule: an invalid module has no design to
// emit; pipesim's TestGeneratedChain checks that a design over the
// instance bound is rejected with TIR060.
func TestEmitRejectsInvalidModule(t *testing.T) {
	if _, err := elab.Elaborate(&tir.Module{Name: "nope"}); err == nil {
		t.Error("invalid module elaborated")
	}
}

// TestEmitCombSqrt: a comb block computing sqrt, called from a pipe,
// emits through the same tytra_isqrt core a pipe datapath instantiates;
// every checker accepts the module, and emission once panicked on it.
func TestEmitCombSqrt(t *testing.T) {
	m, err := tir.Parse("combsqrt", `%mem_x = memobj ui16, size 64, space global, pattern CONT
%mem_y = memobj ui16, size 64, space global, pattern CONT
%str_x = strobj %mem_x, dir in, port main.x
%str_y = strobj %mem_y, dir out, port main.y
@main.x = addrSpace(12) ui16, !"istream", !"CONT", !0, !"str_x"
@main.y = addrSpace(12) ui16, !"ostream", !"CONT", !0, !"str_y"
define void @root(ui16 %a, ui16 %r) comb {
  ui16 %s = sqrt ui16 %a
  out ui16 %r, %s
}
define void @f0(ui16 %x, ui16 %y) pipe {
  call @root(%x, %q) comb
  ui16 %z = add ui16 %q, 1
  out ui16 %y, %z
}
define void @main() {
  call @f0(@main.x, @main.y) pipe
}
`)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Emit(elaborate(t, m))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"    wire [15:0] s;\n",
		"    tytra_isqrt #(.WIDTH(16)) u_sqrt_s (.a(in_a), .q(s));\n",
		"    assign out_r = s;\n",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("comb block missing %q", want)
		}
	}
}
