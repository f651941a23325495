package fabric

import (
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/diag"
	"repro/internal/elab"
	"repro/internal/kernels"
	"repro/internal/tir"
)

func TestDivALUTsFitPoints(t *testing.T) {
	// The three Fig 9 calibration points carry no packing noise, so the
	// quadratic passes exactly through them; 24 bits is pinned to the
	// paper's 652.
	for _, w := range []int{18, 32, 64} {
		want := int(float64(w*w) + 3.7*float64(w) - 10.6 + 0.5)
		if got := DivALUTs(w); got != want {
			t.Errorf("DivALUTs(%d) = %d, want %d (pinned fit point)", w, got, want)
		}
	}
	if got := DivALUTs(24); got != 652 {
		t.Errorf("DivALUTs(24) = %d, want 652", got)
	}
}

func TestDivALUTsMonotoneOnByteWidths(t *testing.T) {
	prev := 0
	for w := 8; w <= 64; w += 4 {
		got := DivALUTs(w)
		if got <= prev {
			t.Errorf("DivALUTs(%d) = %d not above DivALUTs(%d) = %d", w, got, w-4, prev)
		}
		prev = got
	}
}

func TestMulDSPBoundaries(t *testing.T) {
	cases := []struct{ w, want int }{
		{0, 0}, {1, 1}, {18, 1}, {19, 2}, {27, 2}, {28, 4},
		{36, 4}, {37, 6}, {54, 6}, {55, 8}, {64, 8},
	}
	for _, c := range cases {
		if got := MulDSPs(c.w); got != c.want {
			t.Errorf("MulDSPs(%d) = %d, want %d", c.w, got, c.want)
		}
	}
}

func TestMulALUTsGlue(t *testing.T) {
	if got := MulALUTs(18); got != 0 {
		t.Errorf("MulALUTs(18) = %d, want 0 (fits one DSP element)", got)
	}
	if MulALUTs(32) <= 0 || MulALUTs(64) <= MulALUTs(32) {
		t.Error("multiplier glue should grow past the single-element width")
	}
}

func TestConstMulStrengthReduction(t *testing.T) {
	// Powers of two are wiring; CSD digits determine the adder count.
	if got := ConstMulALUTs(18, 16); got != 0 {
		t.Errorf("x16 costs %d ALUTs, want 0", got)
	}
	if got := ConstMulALUTs(18, 1); got != 0 {
		t.Errorf("x1 costs %d ALUTs, want 0", got)
	}
	// 13 = +16 -4 +1: three digits, two adders.
	if got := ConstMulALUTs(18, 13); got != 2*18 {
		t.Errorf("x13 costs %d ALUTs, want %d", got, 2*18)
	}
	// 255 = +256 -1: two digits, one adder (better than 8 partial sums).
	if got := ConstMulALUTs(8, 255); got != 8 {
		t.Errorf("x255 costs %d ALUTs, want 8", got)
	}
}

func TestProbeOpShapes(t *testing.T) {
	tgt := device.StratixVGSD8()
	// Variable multiply uses DSPs; add does not.
	if r := ProbeOp(tgt, tir.OpMul, 18); r.DSPs != 1 {
		t.Errorf("mul probe DSPs = %d, want 1", r.DSPs)
	}
	if r := ProbeOp(tgt, tir.OpAdd, 18); r.DSPs != 0 || r.ALUTs != 18 {
		t.Errorf("add probe = %v, want 18 ALUTs, 0 DSPs", r)
	}
	// Float units are width-stepped.
	f32 := ProbeOp(tgt, tir.OpFAdd, 32)
	f64 := ProbeOp(tgt, tir.OpFAdd, 64)
	if f64.ALUTs <= f32.ALUTs {
		t.Error("f64 adder should cost more than f32")
	}
}

func TestProbeOpNonNegativeProperty(t *testing.T) {
	tgt := device.StratixVGSD8()
	ops := []tir.Opcode{tir.OpAdd, tir.OpSub, tir.OpMul, tir.OpDiv, tir.OpAnd,
		tir.OpShl, tir.OpMin, tir.OpAbs, tir.OpNot, tir.OpRecip, tir.OpSqrt}
	f := func(opIdx, wRaw uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		w := int(wRaw)%64 + 1
		r := ProbeOp(tgt, op, w)
		return r.ALUTs >= 0 && r.Regs >= 0 && r.BRAM >= 0 && r.DSPs >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSynthesizeSOR(t *testing.T) {
	tgt := device.StratixVGSD8()
	m, err := kernels.DefaultSOR().Module()
	if err != nil {
		t.Fatal(err)
	}
	nl := New(tgt).Synthesize(elaborate(t, m))
	if nl.Used.DSPs != 0 {
		t.Errorf("integer SOR uses %d DSPs, want 0 (constant multiplies)", nl.Used.DSPs)
	}
	if nl.Used.BRAM != 5400 {
		t.Errorf("SOR BRAM = %d bits, want 5400 (300-element ui18 window)", nl.Used.BRAM)
	}
	if nl.Used.ALUTs < 300 || nl.Used.ALUTs > 1200 {
		t.Errorf("SOR ALUTs = %d, implausible", nl.Used.ALUTs)
	}
	if nl.FmaxHz <= 0 || nl.FmaxHz > tgt.FmaxHz {
		t.Errorf("Fmax = %v outside (0, %v]", nl.FmaxHz, tgt.FmaxHz)
	}
	if _, ok := nl.PerFunc["f0"]; !ok {
		t.Error("per-function breakdown missing f0")
	}
}

func TestSynthesizeLaneScaling(t *testing.T) {
	tgt := device.StratixVGSD8()
	one, _ := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 1}.Module()
	four, _ := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 4}.Module()
	n1 := New(tgt).Synthesize(elaborate(t, one))
	n4 := New(tgt).Synthesize(elaborate(t, four))
	if n4.Used.BRAM != 4*n1.Used.BRAM {
		t.Errorf("4-lane BRAM = %d, want exactly 4x %d", n4.Used.BRAM, n1.Used.BRAM)
	}
	ratio := float64(n4.Used.ALUTs) / float64(n1.Used.ALUTs)
	if ratio < 3 || ratio > 4.2 {
		t.Errorf("4-lane ALUT ratio = %.2f", ratio)
	}
	// Replication adds congestion: Fmax must not improve.
	if n4.FmaxHz > n1.FmaxHz {
		t.Errorf("4-lane Fmax %v above 1-lane %v", n4.FmaxHz, n1.FmaxHz)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	tgt := device.StratixVGSD8()
	m, _ := kernels.DefaultHotspot().Module()
	a := New(tgt).Synthesize(elaborate(t, m))
	b := New(tgt).Synthesize(elaborate(t, m))
	if a.Used != b.Used || a.FmaxHz != b.FmaxHz {
		t.Error("synthesis is not deterministic")
	}
}

// rejectedHead declares one input stream for the rejected modules below.
const rejectedHead = `%mem_a = memobj ui18, size 64, space global, pattern CONT
%strobj_a = strobj %mem_a, dir in, port main.a
@main.a = addrSpace(12) ui18, !"istream", !"CONT", !0, !"strobj_a"
`

// TestRejectedModulesAreErrors feeds modules that Check rejects to
// elaboration, which walks the call hierarchy: each must have no design
// to synthesise and answer with an error carrying its Check code, never
// a panic or an unbounded recursion.
func TestRejectedModulesAreErrors(t *testing.T) {
	cases := []struct {
		name, src string
		code      string // a code the rejection carries
	}{
		{"no main", rejectedHead + `define void @f0(ui18 %a) pipe {
  ui18 %1 = add ui18 %a, 1
}
`, tir.CodeNoMain},
		{"unknown callee", rejectedHead + `define void @main() {
  call @nope() pipe
}
`, tir.CodeUnknownCallee},
		{"comb call arity", rejectedHead + `define void @c(ui18 %x, ui18 %y) comb {
  out ui18 %y, %x
}
define void @f0(ui18 %a) pipe {
  call @c(%a, %b, %z) comb
}
define void @main() {
  call @f0(@main.a) pipe
}
`, tir.CodeArity},
		{"call cycle", rejectedHead + `define void @f0(ui18 %a) pipe {
  call @f1() pipe
}
define void @f1() pipe {
  call @f0(@main.a) pipe
}
define void @main() {
  call @f0(@main.a) pipe
}
`, tir.CodeRecursion},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := tir.ParseOnly(c.name, c.src)
			if err != nil {
				t.Fatalf("ParseOnly: %v", err)
			}
			if m.Validate() == nil {
				t.Fatal("Validate accepted the module")
			}
			d, err := elab.Elaborate(m)
			if d != nil || err == nil {
				t.Fatal("Elaborate accepted the module")
			}
			found := false
			for _, f := range diag.AsList(err, "") {
				found = found || f.Code == c.code
			}
			if !found {
				t.Errorf("Elaborate: got %v, want a %s error", err, c.code)
			}
		})
	}
}
