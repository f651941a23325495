package pipesim

// This file is the superinstruction half of the executor escalation
// (ROADMAP item 2, modelled on wazero's interpreter-to-compiler
// trajectory): a compile-time peephole pass over the lowered []op
// program that collapses the dominant two-op chains observed in the
// kernel corpus into single fused opcodes. Register slots are SSA —
// each is written exactly once (newSlot) — so a single-use pure
// producer can sink into its consumer freely; the only sink hazards are
// accumulator sampling (an accumulator write between producer and
// consumer changes what the producer would read) and window loads in a
// self-aliased program (an output write between load and use changes
// the array). Both are checked below. The pass never touches pipeline
// accounting: fill, items and parSafe are fixed before it runs.
//
// Rules, in the order they are attempted per consumer:
//
//	F4  op-then-mask-wrap:  t = f(..) & m1 ; r = t & m2
//	      -> r = f(..) & (m1&m2)        (mask-last producers only)
//	F1  mul-add:            t = (a*b) & m ; r = (t+c) & m
//	      -> r = (a*b + c) & m          (uopMulAddU)
//	F2  mul-acc:            t = (a*b) & m ; acc = (t+acc) & m
//	      -> acc = (a*b + acc) & m      (uopMulAccU)
//	F3  load-offset-then-op: t = in[i+off] ; r = g(t, w) or g(w, t)
//	      -> r = g(in[i+off], w)        (uopLoadOffBinU, side in c)
//
// F1/F2 drop the intermediate mask, which is exact because both masks
// are equal low-bit masks: (x&m + y) & m == (x+y) & m for m = 2^k-1.

// FusionStats counts the peephole rewrites applied to one compiled
// program; CompiledDesign.FusionStats sums them across a design.
type FusionStats struct {
	MulAdd   int `json:"mul_add"`   // mul feeding add -> uopMulAddU
	MulAcc   int `json:"mul_acc"`   // mul feeding acc reduction -> uopMulAccU
	LoadOp   int `json:"load_op"`   // window load feeding a bin op -> uopLoadOffBinU
	MaskFold int `json:"mask_fold"` // wrap move folded into the producer's mask
}

// Total is the number of ops eliminated by fusion.
func (s FusionStats) Total() int { return s.MulAdd + s.MulAcc + s.LoadOp + s.MaskFold }

func (s *FusionStats) add(o FusionStats) {
	s.MulAdd += o.MulAdd
	s.MulAcc += o.MulAcc
	s.LoadOp += o.LoadOp
	s.MaskFold += o.MaskFold
}

// opReads appends the operand encodings o actually reads. Stream
// indices and per-op immediates are not operands; fields that are
// meaningless for a code (e.g. c outside uopSel and the fused forms)
// must not be enumerated, or slot 0 picks up phantom uses.
func opReads(o *op, buf []int32) []int32 {
	switch o.code {
	case uopLoadIn, uopLoadOff:
		return buf
	case uopUn, uopAbsU, uopOut, uopOutU, uopMove, uopMoveWrap, uopMoveWrapU, uopLoadOffBinU:
		return append(buf, o.a)
	case uopSel, uopMulAddU, uopMulAccU:
		return append(buf, o.a, o.b, o.c)
	default:
		return append(buf, o.a, o.b)
	}
}

// opWritesReg reports whether o defines a register slot (as opposed to
// an accumulator or an output stream element).
func opWritesReg(o *op) bool {
	switch o.code {
	case uopOut, uopOutU, uopBinAcc, uopAccAddU, uopMulAccU:
		return false
	}
	return true
}

// opWritesAcc reports whether o writes an accumulator.
func opWritesAcc(o *op) bool {
	switch o.code {
	case uopBinAcc, uopAccAddU, uopMulAccU:
		return true
	}
	return false
}

// maskFoldable reports whether o computes full-width arithmetic and
// masks LAST, so a following wrap-to-narrower move can fold into the
// op's own mask: (f(x,y) & m1) & m2 == f(x,y) & (m1&m2). Ops that mask
// an operand BEFORE the arithmetic (lshr, min, max) are excluded:
// narrowing their mask changes the pre-arithmetic truncation, not just
// the result width.
func maskFoldable(o *op) bool {
	switch o.code {
	case uopAddU, uopSubU, uopMulU, uopAndU, uopOrU, uopXorU, uopShlU,
		uopAbsU, uopMoveWrapU, uopMulAddU:
		return true
	case uopLoadOffBinU:
		switch uop(o.b) {
		case uopLshrU, uopMinU, uopMaxU:
			return false
		}
		return true
	}
	return false
}

// fusePeephole runs fusion rounds to a fixpoint and compacts the dead
// ops after each round. selfAliased disables load sinking (F3): when an
// input stream and an output stream of the same program share a memory
// object, moving a load past an out-write changes what it observes.
func fusePeephole(ops []op, selfAliased bool) ([]op, FusionStats) {
	var stats FusionStats
	for {
		dead, n := fuseRound(ops, selfAliased, &stats)
		if n == 0 {
			return ops, stats
		}
		live := ops[:0]
		for k := range ops {
			if !dead[k] {
				live = append(live, ops[k])
			}
		}
		ops = live
	}
}

// fuseRound applies one left-to-right pass. The def/use tables are
// built once per round; in-round rewrites can only REMOVE reads, so a
// stale table is strictly conservative (it blocks fusions the next
// round will catch, never enables an illegal one). Liveness (dead) and
// producer opcodes are always checked against the live ops slice.
func fuseRound(ops []op, selfAliased bool, stats *FusionStats) ([]bool, int) {
	// The tables cover every slot an op reads as well as writes: a
	// constant slot no op writes can sit above the highest written one.
	var nslots int32
	var buf [3]int32
	for k := range ops {
		if opWritesReg(&ops[k]) {
			nslots = max(nslots, ops[k].dst+1)
		}
		for _, e := range opReads(&ops[k], buf[:0]) {
			nslots = max(nslots, e+1)
		}
	}
	def := make([]int32, nslots)  // defining op index + 1; 0 = constant slot
	uses := make([]int32, nslots) // read count
	accW := make([]int32, len(ops)+1)
	for k := range ops {
		o := &ops[k]
		accW[k+1] = accW[k]
		if opWritesAcc(o) {
			accW[k+1]++
		}
		for _, e := range opReads(o, buf[:0]) {
			if e >= 0 {
				uses[e]++
			}
		}
		if opWritesReg(o) {
			def[o.dst] = int32(k) + 1
		}
	}
	dead := make([]bool, len(ops))
	applied := 0

	// producer resolves enc to its defining op index when that op is
	// live and enc is read exactly once; SSA makes sinking it legal.
	producer := func(enc int32) int {
		if enc < 0 || def[enc] == 0 || uses[enc] != 1 {
			return -1
		}
		k := int(def[enc]) - 1
		if dead[k] {
			return -1
		}
		return k
	}
	// canSink reports that evaluating producer i at consumer position j
	// reads the same operand values: register slots are written once, so
	// only an accumulator-sampling producer is pinned, and only when an
	// accumulator write lands between the two positions.
	canSink := func(i, j int) bool {
		for _, e := range opReads(&ops[i], buf[:0]) {
			if e < 0 {
				return accW[j] == accW[i+1]
			}
		}
		return true
	}
	mulProducer := func(enc int32, j int, mask uint64) int {
		i := producer(enc)
		if i < 0 || ops[i].code != uopMulU || ops[i].mask != mask || !canSink(i, j) {
			return -1
		}
		return i
	}
	loadProducer := func(enc int32) int {
		if selfAliased {
			return -1
		}
		i := producer(enc)
		if i < 0 {
			return -1
		}
		// uopLoadIn is a window load at offset 0 (always in bounds), so
		// it fuses through the same rule; its zero off field is already
		// the right uopLoadOffBinU offset.
		if c := ops[i].code; c != uopLoadOff && c != uopLoadIn {
			return -1
		}
		return i
	}
	// fuseLoadOp rewrites q into uopLoadOffBinU when one operand is a
	// single-use window load: b carries the original opcode, c the side
	// the loaded element feeds (0: left, 1: right).
	fuseLoadOp := func(q *op) {
		sub := q.code
		if i := loadProducer(q.a); i >= 0 {
			p := ops[i]
			*q = op{code: uopLoadOffBinU, dst: q.dst, a: q.b, b: int32(sub), c: 0,
				sidx: p.sidx, off: p.off, mask: q.mask}
			dead[i] = true
			stats.LoadOp++
			applied++
			return
		}
		if i := loadProducer(q.b); i >= 0 {
			p := ops[i]
			*q = op{code: uopLoadOffBinU, dst: q.dst, a: q.a, b: int32(sub), c: 1,
				sidx: p.sidx, off: p.off, mask: q.mask}
			dead[i] = true
			stats.LoadOp++
			applied++
		}
	}

	for j := range ops {
		if dead[j] {
			continue
		}
		q := &ops[j]
		switch q.code {
		case uopMoveWrapU:
			if i := producer(q.a); i >= 0 && maskFoldable(&ops[i]) {
				ops[i].dst = q.dst
				ops[i].mask &= q.mask
				dead[j] = true
				stats.MaskFold++
				applied++
			}
		case uopAddU:
			if i := mulProducer(q.a, j, q.mask); i >= 0 {
				p := ops[i]
				*q = op{code: uopMulAddU, dst: q.dst, a: p.a, b: p.b, c: q.b, mask: q.mask}
				dead[i] = true
				stats.MulAdd++
				applied++
				continue
			}
			if i := mulProducer(q.b, j, q.mask); i >= 0 {
				p := ops[i]
				*q = op{code: uopMulAddU, dst: q.dst, a: p.a, b: p.b, c: q.a, mask: q.mask}
				dead[i] = true
				stats.MulAdd++
				applied++
				continue
			}
			fuseLoadOp(q)
		case uopAccAddU:
			if i := mulProducer(q.a, j, q.mask); i >= 0 {
				p := ops[i]
				*q = op{code: uopMulAccU, dst: q.dst, a: p.a, b: p.b, c: q.b, mask: q.mask}
				dead[i] = true
				stats.MulAcc++
				applied++
			} else if i := mulProducer(q.b, j, q.mask); i >= 0 {
				p := ops[i]
				*q = op{code: uopMulAccU, dst: q.dst, a: p.a, b: p.b, c: q.a, mask: q.mask}
				dead[i] = true
				stats.MulAcc++
				applied++
			}
		case uopSubU, uopMulU, uopAndU, uopOrU, uopXorU, uopShlU, uopLshrU, uopMinU, uopMaxU:
			fuseLoadOp(q)
		}
	}
	return dead, applied
}
