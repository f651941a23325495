package pipesim

// This file is the batched executor: instead of sweeping the op
// program once per work-item, it carries batchN work-items through one
// sweep using per-slot [batchN]int64 lanes, hoisting the per-op
// dispatch switch (and the register/accumulator operand branch in ld)
// out of the per-item loop.
// The interior region [loffLo, loffHi) — where every window load is in
// bounds by construction — runs in full batches whose inner loops are
// branch-light and bounds-check-free; the ragged head and tail run on
// the scalar path, which the oracle already pins bit-exact.
//
// Batching reorders execution from item-major to op-major inside a
// batch, which is observable only through accumulators and self-aliased
// streams. A program is lowered to the batched form only when the
// compiler proves the reordering invisible (see batchSafe in
// compile.go); accumulator-writing ops still run a sequential per-lane
// loop in item order, so the committed accumulator sequence is the
// scalar one. Determinism is untouched: batch boundaries depend only on
// compile-time stream shapes, never on timing.

// batchN is the number of work-items one sweep of the batched executor
// carries through the op program.
const batchN = 64

// lane is one register slot's batch of work-item values.
type lane [batchN]int64

// buildBatch lowers the body's op program into its batched form: operand
// encodings that read accumulators are remapped to broadcast lanes
// appended after the register slots — legal because a batchable
// program never writes an accumulator it reads outside the reduction
// itself — and constant slots are broadcast once. Ops that write
// accumulators keep their negative encodings and read the live
// accumulator slab per lane.
func (b *body) buildBatch() {
	nslots := b.nslots
	remap := func(e int32) int32 {
		if e < 0 {
			return nslots + (-1 - e)
		}
		return e
	}
	bops := make([]op, len(b.ops))
	copy(bops, b.ops)
	for k := range bops {
		o := &bops[k]
		if opWritesAcc(o) {
			// Non-self operands are remapped here too: any other
			// accumulator read at a write site is unwritten during exec
			// (batchSafe), so its broadcast lane is valid. The self
			// reference stays negative; the executor folds it into a
			// running value instead of a per-lane slab round-trip.
			self := -1 - o.dst
			remapNonSelf := func(e int32) int32 {
				if e == self {
					return e
				}
				return remap(e)
			}
			o.a, o.b = remapNonSelf(o.a), remapNonSelf(o.b)
			continue
		}
		switch o.code {
		case uopLoadIn, uopLoadOff:
		case uopUn, uopAbsU, uopOut, uopOutU, uopMove, uopMoveWrap, uopMoveWrapU:
			o.a = remap(o.a)
		case uopSel:
			o.a, o.b, o.c = remap(o.a), remap(o.b), remap(o.c)
		default:
			o.a, o.b = remap(o.a), remap(o.b)
		}
	}
	b.bops = bops
	// The broadcast lanes themselves live in each instance's progState
	// (constant slots are broadcast by progState.init), keeping the
	// body immutable and shareable across call sites and concurrent
	// instances.
}

// execBatched runs the program: scalar head up to the interior, full
// batches through the interior, scalar tail for the ragged remainder
// and the trailing boundary region.
func (p *program) execBatched(st *progState) {
	nslots := int(p.nslots)
	for k, v := range st.accVals {
		bl := &st.bregs[nslots+k]
		for l := range bl {
			bl[l] = v
		}
	}
	p.execRange(st, 0, p.loffLo, true)
	base := p.loffLo
	for ; base+batchN <= p.loffHi; base += batchN {
		p.execBatch(st, base)
	}
	p.execRange(st, base, p.items, true)
}

// execBatch sweeps the op program once, carrying the batchN work-items
// at [base, base+batchN). Stream windows convert to *lane so the bound
// is checked once per op per batch and every inner loop indexes a
// fixed-size array; the interior invariant (base >= loffLo and
// base+batchN <= loffHi) guarantees the conversions are in range.
func (p *program) execBatch(st *progState, base int64) {
	ins, outs, acc := st.inArrs, st.outArrs, st.accVals
	bregs := st.bregs
	bops := p.bops
	for k := range bops {
		o := &bops[k]
		switch o.code {
		case uopLoadIn:
			bregs[o.dst] = *(*lane)(ins[o.sidx][base:])
		case uopLoadOff:
			bregs[o.dst] = *(*lane)(ins[o.sidx][base+o.off:])
		case uopAddU:
			x, y, d, m := &bregs[o.a], &bregs[o.b], &bregs[o.dst], o.mask
			for l := range d {
				d[l] = int64(uint64(x[l]+y[l]) & m)
			}
		case uopSubU:
			x, y, d, m := &bregs[o.a], &bregs[o.b], &bregs[o.dst], o.mask
			for l := range d {
				d[l] = int64(uint64(x[l]-y[l]) & m)
			}
		case uopMulU:
			x, y, d, m := &bregs[o.a], &bregs[o.b], &bregs[o.dst], o.mask
			for l := range d {
				d[l] = int64(uint64(x[l]*y[l]) & m)
			}
		case uopAndU:
			x, y, d, m := &bregs[o.a], &bregs[o.b], &bregs[o.dst], o.mask
			for l := range d {
				d[l] = int64(uint64(x[l]&y[l]) & m)
			}
		case uopOrU:
			x, y, d, m := &bregs[o.a], &bregs[o.b], &bregs[o.dst], o.mask
			for l := range d {
				d[l] = int64(uint64(x[l]|y[l]) & m)
			}
		case uopXorU:
			x, y, d, m := &bregs[o.a], &bregs[o.b], &bregs[o.dst], o.mask
			for l := range d {
				d[l] = int64(uint64(x[l]^y[l]) & m)
			}
		case uopShlU:
			x, y, d, m := &bregs[o.a], &bregs[o.b], &bregs[o.dst], o.mask
			for l := range d {
				d[l] = int64(uint64(x[l]<<(uint64(y[l])&63)) & m)
			}
		case uopLshrU:
			x, y, d, m := &bregs[o.a], &bregs[o.b], &bregs[o.dst], o.mask
			for l := range d {
				d[l] = int64((uint64(x[l]) & m) >> (uint64(y[l]) & 63))
			}
		case uopMinU:
			x, y, d, m := &bregs[o.a], &bregs[o.b], &bregs[o.dst], o.mask
			for l := range d {
				a, b := uint64(x[l])&m, uint64(y[l])&m
				if b < a {
					a = b
				}
				d[l] = int64(a)
			}
		case uopMaxU:
			x, y, d, m := &bregs[o.a], &bregs[o.b], &bregs[o.dst], o.mask
			for l := range d {
				a, b := uint64(x[l])&m, uint64(y[l])&m
				if b > a {
					a = b
				}
				d[l] = int64(a)
			}
		case uopAbsU:
			x, d, m := &bregs[o.a], &bregs[o.dst], o.mask
			for l := range d {
				d[l] = int64(uint64(x[l]) & m)
			}
		case uopAccAddU:
			// Accumulator writes run per lane in item order: the committed
			// accumulator sequence is exactly the scalar one. The common
			// reduction form (one self operand, one lane) folds the self
			// reference into a running value.
			m := o.mask
			self := -1 - o.dst
			v := acc[o.dst]
			switch {
			case o.a == self && o.b == self:
				for l := 0; l < batchN; l++ {
					v = int64(uint64(v+v) & m)
				}
			case o.a == self:
				x := &bregs[o.b]
				for l := range x {
					v = int64(uint64(v+x[l]) & m)
				}
			case o.b == self:
				x := &bregs[o.a]
				for l := range x {
					v = int64(uint64(x[l]+v) & m)
				}
			default:
				x, y := &bregs[o.a], &bregs[o.b]
				for l := range x {
					v = int64(uint64(x[l]+y[l]) & m)
				}
			}
			acc[o.dst] = v
		case uopBinAcc:
			self := -1 - o.dst
			switch {
			case o.a == self && o.b >= 0:
				x := &bregs[o.b]
				v := acc[o.dst]
				for l := range x {
					v = o.fn2(v, x[l])
				}
				acc[o.dst] = v
			case o.b == self && o.a >= 0:
				x := &bregs[o.a]
				v := acc[o.dst]
				for l := range x {
					v = o.fn2(x[l], v)
				}
				acc[o.dst] = v
			default:
				for l := 0; l < batchN; l++ {
					acc[o.dst] = o.fn2(bld(bregs, acc, o.a, l), bld(bregs, acc, o.b, l))
				}
			}
		case uopOutU:
			od := (*lane)(outs[o.sidx][base:])
			x, m := &bregs[o.a], o.mask
			for l := range od {
				od[l] = int64(uint64(x[l]) & m)
			}
		case uopOut:
			od := (*lane)(outs[o.sidx][base:])
			x := &bregs[o.a]
			for l := range od {
				od[l] = o.wrap(x[l])
			}
		case uopMoveWrapU:
			x, d, m := &bregs[o.a], &bregs[o.dst], o.mask
			for l := range d {
				d[l] = int64(uint64(x[l]) & m)
			}
		case uopBin, uopCmp:
			x, y, d := &bregs[o.a], &bregs[o.b], &bregs[o.dst]
			for l := range d {
				d[l] = o.fn2(x[l], y[l])
			}
		case uopUn:
			x, d := &bregs[o.a], &bregs[o.dst]
			for l := range d {
				d[l] = o.fn1(x[l])
			}
		case uopSel:
			cnd, x, y, d := &bregs[o.c], &bregs[o.a], &bregs[o.b], &bregs[o.dst]
			for l := range d {
				if cnd[l] != 0 {
					d[l] = x[l]
				} else {
					d[l] = y[l]
				}
			}
		case uopMove:
			bregs[o.dst] = bregs[o.a]
		case uopMoveWrap:
			x, d := &bregs[o.a], &bregs[o.dst]
			for l := range d {
				d[l] = o.wrap(x[l])
			}
		}
	}
}

// opWritesAcc reports whether o writes an accumulator.
func opWritesAcc(o *op) bool {
	return o.code == uopBinAcc || o.code == uopAccAddU
}

// bld reads an operand of an accumulator-writing op at lane l:
// non-negative encodings index the batch register file, negative ones
// the live accumulator slab (encodings of acc-writing ops are never
// remapped to broadcast lanes).
func bld(bregs []lane, acc []int64, e int32, l int) int64 {
	if e >= 0 {
		return bregs[e][l]
	}
	return acc[-1-e]
}
