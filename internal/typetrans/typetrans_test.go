package typetrans

import (
	"testing"
	"testing/quick"

	"repro/internal/elab"
	"repro/internal/pipesim"
	"repro/internal/tir"
)

// scaleKernel is a minimal element-wise kernel: q = 3a + b.
func scaleKernel() *Kernel {
	ty := tir.UIntT(16)
	return &Kernel{
		Name:    "scale",
		Inputs:  []StreamSig{{Name: "a", Ty: ty}, {Name: "b", Ty: ty}},
		Outputs: []StreamSig{{Name: "q", Ty: ty}},
		Body: func(fb *tir.FuncBuilder, ins, outs []tir.Value) {
			fb.Out(outs[0], fb.Add(fb.MulImm(ins[0], 3), ins[1]))
		},
	}
}

func TestReshapePreservesSize(t *testing.T) {
	v := NewVect(24000, tir.UIntT(18))
	r, err := ReshapeTo(v, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Shape.Size() != v.Shape.Size() {
		t.Errorf("size changed: %d -> %d", v.Shape.Size(), r.Shape.Size())
	}
	if len(r.Shape) != 2 || r.Shape[0] != 4 || r.Shape[1] != 6000 {
		t.Errorf("shape = %v, want [4 6000]", r.Shape)
	}
}

func TestReshapeRejectsNonDivisor(t *testing.T) {
	v := NewVect(10, tir.UIntT(8))
	if _, err := ReshapeTo(v, 3); err == nil {
		t.Error("reshapeTo 3 of a 10-vector accepted")
	}
	if _, err := ReshapeTo(v, 0); err == nil {
		t.Error("reshapeTo 0 accepted")
	}
	if _, err := ReshapeTo(Vect{Elem: tir.UIntT(8)}, 2); err == nil {
		t.Error("reshape of a scalar accepted")
	}
}

func TestReshapePreservesOrder(t *testing.T) {
	// The central correct-by-construction property: for every element,
	// the flat position before the reshape equals the flat position of
	// its image (outer = i / inner, rest unchanged) after the reshape.
	v := NewVect(360, tir.UIntT(18))
	r, err := ReshapeTo(v, 8)
	if err != nil {
		t.Fatal(err)
	}
	inner := r.Shape[1]
	for i := int64(0); i < 360; i++ {
		flat, err := r.Shape.FlatIndex([]int64{i / inner, i % inner})
		if err != nil {
			t.Fatal(err)
		}
		if flat != i {
			t.Fatalf("element %d maps to %d after reshape", i, flat)
		}
	}
}

func TestReshapeOrderProperty(t *testing.T) {
	// Property over arbitrary sizes and factors: whenever reshapeTo is
	// accepted, the index mapping is the identity on flat positions.
	f := func(nRaw uint16, kRaw uint8) bool {
		n := int64(nRaw)%4096 + 1
		k := int64(kRaw)%64 + 1
		v := NewVect(n, tir.UIntT(18))
		r, err := ReshapeTo(v, k)
		if err != nil {
			return n%k != 0 // rejected iff not divisible
		}
		if r.Shape.Size() != n {
			return false
		}
		inner := r.Shape[1]
		for _, i := range []int64{0, n / 2, n - 1} {
			flat, err := r.Shape.FlatIndex([]int64{i / inner, i % inner})
			if err != nil || flat != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlatIndexErrors(t *testing.T) {
	s := Shape{4, 6}
	if _, err := s.FlatIndex([]int64{1}); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := s.FlatIndex([]int64{4, 0}); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestBaselineAndReshapeProgram(t *testing.T) {
	p, err := Baseline(scaleKernel(), 128)
	if err != nil {
		t.Fatal(err)
	}
	if p.Lanes() != 1 {
		t.Errorf("baseline lanes = %d", p.Lanes())
	}
	r, err := p.Reshape(4, tir.ModePar)
	if err != nil {
		t.Fatal(err)
	}
	if r.Lanes() != 4 {
		t.Errorf("reshaped lanes = %d", r.Lanes())
	}
	if len(r.Modes) != 2 || r.Modes[0] != tir.ModePar || r.Modes[1] != tir.ModePipe {
		t.Errorf("modes = %v, want [par pipe]", r.Modes)
	}
	// The original program is untouched (transformations are pure).
	if len(p.Modes) != 1 {
		t.Error("reshape mutated the source program")
	}
}

func TestReshapeRejectsBadOuterMode(t *testing.T) {
	p, err := Baseline(scaleKernel(), 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Reshape(4, tir.ModePipe); err == nil {
		t.Error("pipe outer map accepted")
	}
	if _, err := p.Reshape(4, tir.ModeComb); err == nil {
		t.Error("comb outer map accepted")
	}
}

func TestLowerBaselineValidates(t *testing.T) {
	p, err := Baseline(scaleKernel(), 64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Lower()
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(m)
	if err != nil {
		t.Fatal(err)
	}
	if cfg := d.Config(); cfg != tir.ConfigPipe {
		t.Errorf("config = %v, want C1 pipeline", cfg)
	}
	if d.Lanes() != 1 {
		t.Errorf("lanes = %d", d.Lanes())
	}
}

func TestLowerParVariantValidates(t *testing.T) {
	p, err := Baseline(scaleKernel(), 64)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Reshape(4, tir.ModePar)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Lower()
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(m)
	if err != nil {
		t.Fatal(err)
	}
	if cfg := d.Config(); cfg != tir.ConfigParPipes {
		t.Errorf("config = %v, want C2 data-parallel pipelines", cfg)
	}
	if d.Lanes() != 4 {
		t.Errorf("lanes = %d, want 4", d.Lanes())
	}
}

func TestLoweredVariantsComputeSameResult(t *testing.T) {
	// Correct by construction, end to end: the baseline and the
	// 4-lane reshape must compute identical streams (the kernel is
	// element-wise, so lane boundaries are exact).
	base, err := Baseline(scaleKernel(), 64)
	if err != nil {
		t.Fatal(err)
	}
	par4, err := base.Reshape(4, tir.ModePar)
	if err != nil {
		t.Fatal(err)
	}
	seq4, err := base.Reshape(4, tir.ModeSeq)
	if err != nil {
		t.Fatal(err)
	}

	a := make([]int64, 64)
	bb := make([]int64, 64)
	for i := range a {
		a[i] = int64(i * 5 % 997)
		bb[i] = int64(i * 11 % 499)
	}

	run := func(p *Program) []int64 {
		t.Helper()
		m, err := p.Lower()
		if err != nil {
			t.Fatal(err)
		}
		mem := map[string][]int64{}
		lanes := int(p.Lanes())
		if len(p.Modes) == 2 && p.Modes[0] == tir.ModeSeq {
			lanes = int(p.Vec.Shape[0])
		}
		if lanes == 1 {
			mem["mem_main_a"] = a
			mem["mem_main_b"] = bb
		} else {
			chunk := 64 / lanes
			for l := 0; l < lanes; l++ {
				mem[names("a", l)] = a[l*chunk : (l+1)*chunk]
				mem[names("b", l)] = bb[l*chunk : (l+1)*chunk]
			}
		}
		res, err := pipesim.Run(m, mem)
		if err != nil {
			t.Fatal(err)
		}
		var out []int64
		if lanes == 1 {
			out = res.Mem["mem_main_q"]
		} else {
			for l := 0; l < lanes; l++ {
				out = append(out, res.Mem[names("q", l)]...)
			}
		}
		return out
	}

	ref := run(base)
	for _, variant := range []*Program{par4, seq4} {
		got := run(variant)
		if len(got) != len(ref) {
			t.Fatalf("variant output length %d, want %d", len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("variant differs at %d: %d vs %d", i, got[i], ref[i])
			}
		}
	}
}

func names(port string, lane int) string {
	return "mem_main_" + port + string(rune('0'+lane))
}

func TestEnumerateLaneVariants(t *testing.T) {
	vs, err := EnumerateLaneVariants(scaleKernel(), 24, 8)
	if err != nil {
		t.Fatal(err)
	}
	// 1 (baseline) + lanes 2,3,4,6,8.
	if len(vs) != 6 {
		t.Fatalf("got %d variants, want 6", len(vs))
	}
	wantLanes := []int64{1, 2, 3, 4, 6, 8}
	for i, v := range vs {
		if v.Lanes() != wantLanes[i] {
			t.Errorf("variant %d lanes = %d, want %d", i, v.Lanes(), wantLanes[i])
		}
		if err := v.Validate(); err != nil {
			t.Errorf("variant %d invalid: %v", i, err)
		}
	}
}

func TestProgramValidateRejects(t *testing.T) {
	k := scaleKernel()
	bad := []*Program{
		{Kernel: k, Vec: NewVect(8, tir.UIntT(16)), Modes: []tir.ParMode{tir.ModePar}},
		{Kernel: k, Vec: NewVect(8, tir.UIntT(16)), Modes: nil},
		{Kernel: &Kernel{}, Vec: NewVect(8, tir.UIntT(16)), Modes: []tir.ParMode{tir.ModePipe}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad program %d accepted", i)
		}
	}
	// Three map levels are beyond the prototype.
	p, _ := Baseline(k, 64)
	r1, _ := p.Reshape(2, tir.ModePar)
	r2, err := r1.Reshape(2, tir.ModePar)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Validate(); err == nil {
		t.Error("three-level nest accepted by prototype lowering")
	}
}
