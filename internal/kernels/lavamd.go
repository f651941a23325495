package kernels

import (
	"fmt"

	"repro/internal/tir"
	"repro/internal/typetrans"
)

// LavaMD fixed-point parameters: ui32 datapath (wide enough for squared
// distances; four DSP elements per variable multiplier), coordinates in
// [0, 2^10), charges in [0, 2^8).
const (
	lavaBits  = 32
	lavaXMax  = 1 << 10
	lavaQMax  = 1 << 8
	lavaEps   = 7 // softening term added to r² before the reciprocal
	lavaShft1 = 6 // rescale of the potential before the force multiply
)

// LavaMDSpec describes a design variant of the Rodinia lavaMD kernel:
// particle-pair potential and force. Each work-item is one (home,
// neighbour) particle pair streamed as coordinate/charge tuples — the
// box-blocked pair enumeration of the original benchmark flattened into
// the NDRange, which is how a streaming dataflow engine consumes it.
type LavaMDSpec struct {
	Pairs int // work-items per kernel-instance
	Lanes int
}

// DefaultLavaMD returns the Table II configuration: a small NDRange (one
// home box against its neighbour list), single pipeline.
func DefaultLavaMD() LavaMDSpec { return LavaMDSpec{Pairs: 96, Lanes: 1} }

// Name implements Spec.
func (l LavaMDSpec) Name() string { return "lavamd" }

// LaneCount implements Spec.
func (l LavaMDSpec) LaneCount() int { return l.Lanes }

// GlobalSize implements Spec.
func (l LavaMDSpec) GlobalSize() int64 { return int64(l.Pairs) }

// Validate checks the configuration.
func (l LavaMDSpec) Validate() error {
	if l.Pairs < 1 {
		return fmt.Errorf("kernels: lavamd needs at least one pair")
	}
	return nil
}

// Module implements Spec.
func (l LavaMDSpec) Module() (*tir.Module, error) { return Variant(l, l.Lanes) }

// Kernel implements Spec: 8 streams in, 2 out. The datapath computes,
// per particle pair,
//
//	r²  = dx² + dy² + dz² + eps
//	pot = (qi·qj) · recip(r²) >> s
//	fx  = pot · dx
//
// and accumulates the total potential into @potAcc. Unlike the stencil
// kernels there are no stream offsets, so the design uses no block RAM —
// the BRAM=0 row of Table II.
func (l LavaMDSpec) Kernel() *typetrans.Kernel {
	ty := tir.UIntT(lavaBits)
	return &typetrans.Kernel{
		Name:    "lavamd",
		Inputs:  streams(ty, "xi", "yi", "zi", "qi", "xj", "yj", "zj", "qj"),
		Outputs: streams(ty, "pot", "fx"),
		Body: func(f0 *tir.FuncBuilder, ins, outs []tir.Value) {
			xi, yi, zi, qi := ins[0], ins[1], ins[2], ins[3]
			xj, yj, zj, qj := ins[4], ins[5], ins[6], ins[7]
			potOut, fxOut := outs[0], outs[1]

			dx := f0.Sub(xi, xj)
			dy := f0.Sub(yi, yj)
			dz := f0.Sub(zi, zj)
			dx2 := f0.Mul(dx, dx)
			dy2 := f0.Mul(dy, dy)
			dz2 := f0.Mul(dz, dz)
			sxy := f0.Add(dx2, dy2)
			r2 := f0.Add(sxy, dz2)
			rr := f0.BinImm(tir.OpAdd, r2, lavaEps)
			u := f0.Un(tir.OpRecip, rr)
			qq := f0.Mul(qi, qj)
			pv := f0.Mul(qq, u)
			ps := f0.BinImm(tir.OpLshr, pv, lavaShft1)
			fx := f0.Mul(ps, dx)

			f0.Out(potOut, ps)
			f0.Out(fxOut, fx)
			f0.Accumulate("potAcc", tir.OpAdd, ps)
		},
	}
}

// MakeInputs implements Spec.
func (l LavaMDSpec) MakeInputs(seed int64) map[string][]int64 {
	n := l.GlobalSize()
	r := NewLCG(seed)
	out := map[string][]int64{}
	for _, name := range []string{"xi", "yi", "zi", "xj", "yj", "zj"} {
		a := make([]int64, n)
		r.fill(a, lavaXMax)
		out[name] = a
	}
	for _, name := range []string{"qi", "qj"} {
		a := make([]int64, n)
		r.fill(a, lavaQMax)
		out[name] = a
	}
	return out
}

// Golden implements Spec with ui32 wrap-around semantics.
func (l LavaMDSpec) Golden(in map[string][]int64) (map[string][]int64, map[string]int64) {
	n := int(l.GlobalSize())
	mask := tir.UIntT(lavaBits).Mask()
	pot := make([]int64, n)
	fxs := make([]int64, n)
	var acc uint64
	for i := 0; i < n; i++ {
		dx := (uint64(in["xi"][i]) - uint64(in["xj"][i])) & mask
		dy := (uint64(in["yi"][i]) - uint64(in["yj"][i])) & mask
		dz := (uint64(in["zi"][i]) - uint64(in["zj"][i])) & mask
		r2 := (dx*dx + dy*dy + dz*dz) & mask
		rr := (r2 + lavaEps) & mask
		var u uint64
		if rr == 0 {
			u = mask
		} else {
			u = ((uint64(1) << (lavaBits - 1)) / rr) & mask
		}
		qq := (uint64(in["qi"][i]) * uint64(in["qj"][i])) & mask
		ps := ((qq * u) & mask) >> lavaShft1
		fx := (ps * dx) & mask
		pot[i] = int64(ps)
		fxs[i] = int64(fx)
		acc = (acc + ps) & mask
	}
	return map[string][]int64{"pot": pot, "fx": fxs}, map[string]int64{"potAcc": int64(acc)}
}
