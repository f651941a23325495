package tir

import "testing"

// evalTableTypes spans the widths and kinds the kernels and the fuzzer
// exercise, plus the extremes.
var evalTableTypes = []Type{
	UIntT(1), UIntT(8), UIntT(16), UIntT(18), UIntT(24), UIntT(32), UIntT(63), UIntT(64),
	SIntT(8), SIntT(16), SIntT(24), SIntT(32), SIntT(64),
}

// evalTableValues mixes small values, masks, sign boundaries and raw
// out-of-range patterns (operands reach Eval* unwrapped).
func evalTableValues(ty Type) []int64 {
	m := int64(ty.Mask())
	return []int64{
		0, 1, 2, 3, -1, -2, 7, 63, 64, -63,
		m, m - 1, m + 1, -m,
		int64(1) << uint(ty.Bits-1), (int64(1) << uint(ty.Bits-1)) - 1,
		0x5555_5555_5555_5555, -0x1234_5678,
	}
}

func TestBinEvalMatchesEvalBin(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		info := op.Info()
		for _, ty := range evalTableTypes {
			fn, ok := BinEval(op, ty)
			wantOK := info.Arity == 2 && !info.Float
			if ok != wantOK {
				t.Fatalf("BinEval(%s, %s) ok = %v, want %v", op, ty, ok, wantOK)
			}
			if !ok {
				continue
			}
			for _, a := range evalTableValues(ty) {
				for _, b := range evalTableValues(ty) {
					if (op == OpDiv || op == OpRem) && ty.Kind == SInt && a == minInt64(ty) && b == -1 {
						continue // overflow panics identically in both paths
					}
					want, err := EvalBin(op, ty, a, b)
					if err != nil {
						t.Fatalf("EvalBin(%s, %s, %d, %d): %v", op, ty, a, b, err)
					}
					if got := fn(a, b); got != want {
						t.Fatalf("BinEval(%s, %s)(%d, %d) = %d, want %d", op, ty, a, b, got, want)
					}
				}
			}
		}
	}
}

func minInt64(ty Type) int64 {
	if ty.Bits == 64 {
		return -1 << 63
	}
	return 0 // narrower types cannot overflow int64 division
}

func TestUnEvalMatchesEvalUn(t *testing.T) {
	for _, op := range []Opcode{OpAbs, OpNot, OpRecip, OpSqrt} {
		for _, ty := range evalTableTypes {
			fn, ok := UnEval(op, ty)
			if !ok {
				t.Fatalf("UnEval(%s, %s) not ok", op, ty)
			}
			for _, a := range evalTableValues(ty) {
				want, err := EvalUn(op, ty, a)
				if err != nil {
					t.Fatalf("EvalUn(%s, %s, %d): %v", op, ty, a, err)
				}
				if got := fn(a); got != want {
					t.Fatalf("UnEval(%s, %s)(%d) = %d, want %d", op, ty, a, got, want)
				}
			}
		}
	}
	if _, ok := UnEval(OpAdd, UIntT(8)); ok {
		t.Error("UnEval(add) should not resolve")
	}
}

// TestIntegerOpMatchesEvalClosures pins the static evaluability test
// Analyze uses to the closures the simulator builds, out-of-range
// opcodes included.
func TestIntegerOpMatchesEvalClosures(t *testing.T) {
	for op := Opcode(-1); op <= numOpcodes; op++ {
		if _, ok := BinEval(op, UIntT(18)); integerOp(op, 2) != ok {
			t.Errorf("integerOp(%s, 2) = %v, BinEval ok = %v", op, !ok, ok)
		}
		if _, ok := UnEval(op, UIntT(18)); integerOp(op, 1) != ok {
			t.Errorf("integerOp(%s, 1) = %v, UnEval ok = %v", op, !ok, ok)
		}
	}
	for _, pred := range []string{"eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge", "bogus", ""} {
		if _, ok := CmpEval(pred, UIntT(18)); ValidCmpPred(pred) != ok {
			t.Errorf("ValidCmpPred(%q) = %v, CmpEval ok = %v", pred, !ok, ok)
		}
	}
}

func TestCmpEvalMatchesEvalCmp(t *testing.T) {
	preds := []string{"eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge"}
	for _, pred := range preds {
		for _, ty := range evalTableTypes {
			fn, ok := CmpEval(pred, ty)
			if !ok {
				t.Fatalf("CmpEval(%s, %s) not ok", pred, ty)
			}
			for _, a := range evalTableValues(ty) {
				for _, b := range evalTableValues(ty) {
					want, err := EvalCmp(pred, ty, a, b)
					if err != nil {
						t.Fatalf("EvalCmp(%s, %s, %d, %d): %v", pred, ty, a, b, err)
					}
					if got := fn(a, b); got != want {
						t.Fatalf("CmpEval(%s, %s)(%d, %d) = %d, want %d", pred, ty, a, b, got, want)
					}
				}
			}
		}
	}
	if _, ok := CmpEval("bogus", UIntT(8)); ok {
		t.Error("CmpEval(bogus) should not resolve")
	}
}

func TestAccIdentityIsIdentity(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		for _, ty := range evalTableTypes {
			e, ok := AccIdentity(op, ty)
			if !ok {
				continue
			}
			fn, binOK := BinEval(op, ty)
			if !binOK {
				t.Fatalf("AccIdentity resolves for %s but BinEval does not", op)
			}
			for _, v := range evalTableValues(ty) {
				w := ty.Wrap(v)
				if got := fn(w, e); got != w {
					t.Fatalf("AccIdentity(%s, %s): op(%d, %d) = %d, want %d", op, ty, w, e, got, w)
				}
				if got := fn(e, w); got != w {
					t.Fatalf("AccIdentity(%s, %s): op(%d, %d) = %d, want %d", op, ty, e, w, got, w)
				}
			}
		}
	}
	// Non-associative ops must not qualify.
	for _, op := range []Opcode{OpSub, OpDiv, OpRem, OpShl, OpLshr, OpAshr} {
		if _, ok := AccIdentity(op, UIntT(16)); ok {
			t.Errorf("AccIdentity(%s) should not resolve", op)
		}
	}
}
