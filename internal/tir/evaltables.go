package tir

// Specialised evaluation closures for compiled executors.
//
// EvalBin/EvalUn/EvalCmp dispatch on the opcode at every call, which is
// fine for an interpreter but wasteful inside a compile-once datapath
// executor that already knows each instruction's opcode and type. The
// helpers below resolve that dispatch once, returning a closure over the
// pre-computed wrap/mask state. They must agree bit for bit with the
// Eval* functions — the generated hardware has one semantics, not two —
// and evaltables_test.go pins that equivalence exhaustively.

// integerOp reports whether op is an integer opcode of the given arity:
// BinEval resolves exactly the arity-2 ones and UnEval the arity-1 ones.
// Static checks ask it instead of building a closure they would discard.
func integerOp(op Opcode, arity int) bool {
	return op >= 0 && op < numOpcodes && opTable[op].Arity == arity && !opTable[op].Float
}

// BinEval returns a closure evaluating the binary integer opcode op at
// type ty, semantically identical to EvalBin(op, ty, a, b). The boolean
// reports whether op is a binary integer opcode.
func BinEval(op Opcode, ty Type) (func(a, b int64) int64, bool) {
	wrap := ty.Wrap
	mask := ty.Mask()
	switch op {
	case OpAdd:
		return func(a, b int64) int64 { return wrap(a + b) }, true
	case OpSub:
		return func(a, b int64) int64 { return wrap(a - b) }, true
	case OpMul:
		return func(a, b int64) int64 { return wrap(a * b) }, true
	case OpDiv:
		if ty.Kind == UInt {
			return func(a, b int64) int64 {
				ub := uint64(b) & mask
				if ub == 0 {
					return wrap(int64(mask))
				}
				return wrap(int64(uint64(a) & mask / ub))
			}, true
		}
		return func(a, b int64) int64 {
			if b == 0 {
				return wrap(int64(mask))
			}
			return wrap(a / b)
		}, true
	case OpRem:
		if ty.Kind == UInt {
			return func(a, b int64) int64 {
				ub := uint64(b) & mask
				if ub == 0 {
					return wrap(a)
				}
				return wrap(int64(uint64(a) & mask % ub))
			}, true
		}
		return func(a, b int64) int64 {
			if b == 0 {
				return wrap(a)
			}
			return wrap(a % b)
		}, true
	case OpAnd:
		return func(a, b int64) int64 { return wrap(a & b) }, true
	case OpOr:
		return func(a, b int64) int64 { return wrap(a | b) }, true
	case OpXor:
		return func(a, b int64) int64 { return wrap(a ^ b) }, true
	case OpShl:
		return func(a, b int64) int64 { return wrap(a << (uint64(b) & 63)) }, true
	case OpLshr:
		return func(a, b int64) int64 { return wrap(int64((uint64(a) & mask) >> (uint64(b) & 63))) }, true
	case OpAshr:
		return func(a, b int64) int64 { return wrap(a >> (uint64(b) & 63)) }, true
	case OpMin:
		return func(a, b int64) int64 {
			if less(ty, a, b) {
				return wrap(a)
			}
			return wrap(b)
		}, true
	case OpMax:
		return func(a, b int64) int64 {
			if less(ty, a, b) {
				return wrap(b)
			}
			return wrap(a)
		}, true
	}
	return nil, false
}

// UnEval returns a closure evaluating the unary integer opcode op at
// type ty, semantically identical to EvalUn(op, ty, a). The boolean
// reports whether op is a unary integer opcode.
func UnEval(op Opcode, ty Type) (func(a int64) int64, bool) {
	wrap := ty.Wrap
	mask := ty.Mask()
	switch op {
	case OpAbs:
		if ty.Kind == SInt {
			return func(a int64) int64 {
				if a < 0 {
					return wrap(-a)
				}
				return wrap(a)
			}, true
		}
		return wrap, true
	case OpNot:
		return func(a int64) int64 { return wrap(^a) }, true
	case OpRecip:
		shift := uint(ty.Bits - 1)
		return func(a int64) int64 {
			if a == 0 {
				return wrap(int64(mask))
			}
			return wrap((int64(1) << shift) / a)
		}, true
	case OpSqrt:
		return func(a int64) int64 {
			if a <= 0 {
				return 0
			}
			return wrap(isqrt(uint64(a) & mask))
		}, true
	}
	return nil, false
}

// CmpEval returns a closure evaluating the icmp predicate pred at
// operand type ty, semantically identical to EvalCmp(pred, ty, a, b).
// The boolean reports whether pred is a legal predicate.
func CmpEval(pred string, ty Type) (func(a, b int64) int64, bool) {
	mask := ty.Mask()
	signed := SIntT(ty.Bits)
	if ty.IsFloat() {
		signed = ty
	}
	toI := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	switch pred {
	case "eq":
		return func(a, b int64) int64 { return toI(uint64(a)&mask == uint64(b)&mask) }, true
	case "ne":
		return func(a, b int64) int64 { return toI(uint64(a)&mask != uint64(b)&mask) }, true
	case "ult":
		return func(a, b int64) int64 { return toI(uint64(a)&mask < uint64(b)&mask) }, true
	case "ule":
		return func(a, b int64) int64 { return toI(uint64(a)&mask <= uint64(b)&mask) }, true
	case "ugt":
		return func(a, b int64) int64 { return toI(uint64(a)&mask > uint64(b)&mask) }, true
	case "uge":
		return func(a, b int64) int64 { return toI(uint64(a)&mask >= uint64(b)&mask) }, true
	case "slt":
		return func(a, b int64) int64 { return toI(signed.Wrap(a) < signed.Wrap(b)) }, true
	case "sle":
		return func(a, b int64) int64 { return toI(signed.Wrap(a) <= signed.Wrap(b)) }, true
	case "sgt":
		return func(a, b int64) int64 { return toI(signed.Wrap(a) > signed.Wrap(b)) }, true
	case "sge":
		return func(a, b int64) int64 { return toI(signed.Wrap(a) >= signed.Wrap(b)) }, true
	}
	return nil, false
}

// AccIdentity returns the identity element of op at type ty — the value
// e for which op(v, e) == wrap(v) for every wrapped v — for the opcodes
// that are commutative and associative under the fixed-width wrap-around
// semantics of EvalBin. The boolean reports whether op qualifies.
//
// An accumulator driven exclusively by such an opcode can be computed as
// independent partials (each starting from the identity) merged in any
// order without changing the bit-exact result: replicated par lanes can
// each keep their own, and the simulator's batched executor may
// interleave several write sites.
func AccIdentity(op Opcode, ty Type) (int64, bool) {
	switch op {
	case OpAdd, OpOr, OpXor:
		return 0, true
	case OpMul:
		return 1, true
	case OpAnd:
		return ty.Wrap(int64(ty.Mask())), true
	case OpMin:
		// Identity is the largest representable value.
		if ty.Kind == SInt {
			return int64(ty.Mask() >> 1), true
		}
		return int64(ty.Mask()), true
	case OpMax:
		// Identity is the smallest representable value.
		if ty.Kind == SInt {
			return ty.Wrap(int64(1) << uint(ty.Bits-1)), true
		}
		return 0, true
	}
	return 0, false
}
