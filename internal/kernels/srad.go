package kernels

import (
	"fmt"

	"repro/internal/tir"
	"repro/internal/typetrans"
)

// SRAD fixed-point parameters (ui24 datapath, image samples in
// [0, 2^12), like hotspot).
const (
	sradBits  = 24
	sradJMax  = 1 << 12
	sradK     = 1 << 16 // diffusion threshold constant
	sradCMax  = 1 << 14 // clamp ceiling for the coefficient
	sradShft1 = 8       // rescale of the gradient magnitude
	sradShft2 = 10      // rescale of the update term
)

// SRADSpec is a fourth evaluation kernel beyond the paper's three: a
// simplified integer form of Rodinia's SRAD (speckle-reducing
// anisotropic diffusion) — the "larger and more complex kernels" the
// paper's conclusion says the cost model is being extended to. Its
// datapath adds what SOR/hotspot/lavaMD lack: data-dependent control in
// the form of a clamped diffusion coefficient (icmp + select), on top of
// a 5-point stencil and variable multipliers.
type SRADSpec struct {
	Rows, Cols int
	Lanes      int
}

// DefaultSRAD returns a mid-size image.
func DefaultSRAD() SRADSpec { return SRADSpec{Rows: 128, Cols: 229, Lanes: 1} }

// Name implements Spec.
func (s SRADSpec) Name() string { return "srad" }

// LaneCount implements Spec.
func (s SRADSpec) LaneCount() int { return s.Lanes }

// GlobalSize implements Spec.
func (s SRADSpec) GlobalSize() int64 { return int64(s.Rows) * int64(s.Cols) }

// Validate checks the geometry.
func (s SRADSpec) Validate() error {
	if s.Rows < 2 || s.Cols < 2 {
		return fmt.Errorf("kernels: srad image %dx%d too small", s.Rows, s.Cols)
	}
	return nil
}

// Module implements Spec.
func (s SRADSpec) Module() (*tir.Module, error) { return Variant(s, s.Lanes) }

// Kernel implements Spec: image in, image out. Per pixel:
//
//	dN..dW = neighbour differences
//	g2     = (dN² + dS² + dE² + dW²) >> s1   (gradient magnitude)
//	lap    = (dN + dS + dE + dW) >> 2        (laplacian)
//	c      = clamp(K − g2, 0, CMAX)          (icmp + select, twice)
//	out    = img + (c·lap) >> s2
//
// with the total diffusion coefficient accumulated into @cSum.
func (s SRADSpec) Kernel() *typetrans.Kernel {
	ty := tir.UIntT(sradBits)
	return &typetrans.Kernel{
		Name:    "srad",
		Inputs:  streams(ty, "img"),
		Outputs: streams(ty, "img_new"),
		Body: func(f0 *tir.FuncBuilder, ins, outs []tir.Value) {
			img, out := ins[0], outs[0]

			jn := f0.NamedOffset("jn", img, -int64(s.Cols))
			js := f0.NamedOffset("js", img, int64(s.Cols))
			je := f0.NamedOffset("je", img, 1)
			jw := f0.NamedOffset("jw", img, -1)

			dn := f0.Sub(jn, img)
			dsx := f0.Sub(js, img)
			de := f0.Sub(je, img)
			dw := f0.Sub(jw, img)

			g2 := f0.BinImm(tir.OpLshr,
				f0.Add(f0.Add(f0.Mul(dn, dn), f0.Mul(dsx, dsx)),
					f0.Add(f0.Mul(de, de), f0.Mul(dw, dw))),
				sradShft1)
			lap := f0.BinImm(tir.OpLshr, f0.Add(f0.Add(dn, dsx), f0.Add(de, dw)), 2)

			kconst := f0.NamedConst("kappa", ty, sradK)
			zero := f0.NamedConst("zero", ty, 0)
			cmax := f0.NamedConst("cmax", ty, sradCMax)

			raw := f0.Sub(kconst, g2)
			// Wrapped-negative detection: a result above K means g2 > K.
			neg := f0.Cmp("ugt", raw, kconst)
			lo := f0.Select(neg, zero, raw)
			high := f0.Cmp("ugt", lo, cmax)
			c := f0.Select(high, cmax, lo)

			upd := f0.BinImm(tir.OpLshr, f0.Mul(c, lap), sradShft2)
			f0.Out(out, f0.Add(img, upd))
			f0.Accumulate("cSum", tir.OpAdd, c)
		},
	}
}

// MakeInputs implements Spec.
func (s SRADSpec) MakeInputs(seed int64) map[string][]int64 {
	n := s.GlobalSize()
	r := NewLCG(seed)
	img := make([]int64, n)
	r.fill(img, sradJMax)
	return map[string][]int64{"img": img}
}

// Golden implements Spec with ui24 wrap-around semantics; out-of-range
// neighbours read zero.
func (s SRADSpec) Golden(in map[string][]int64) (map[string][]int64, map[string]int64) {
	img := in["img"]
	n := len(img)
	mask := tir.UIntT(sradBits).Mask()
	at := func(i int) uint64 {
		if i < 0 || i >= n {
			return 0
		}
		return uint64(img[i]) & mask
	}
	outv := make([]int64, n)
	var acc uint64
	cols := s.Cols
	for i := 0; i < n; i++ {
		jc := at(i)
		dn := (at(i-cols) - jc) & mask
		dsx := (at(i+cols) - jc) & mask
		de := (at(i+1) - jc) & mask
		dw := (at(i-1) - jc) & mask
		g2 := ((dn*dn + dsx*dsx + de*de + dw*dw) & mask) >> sradShft1
		lap := ((dn + dsx + de + dw) & mask) >> 2
		raw := (sradK - g2) & mask
		c := raw
		if raw > sradK { // wrapped negative
			c = 0
		}
		if c > sradCMax {
			c = sradCMax
		}
		upd := ((c * lap) & mask) >> sradShft2
		outv[i] = int64((jc + upd) & mask)
		acc = (acc + c) & mask
	}
	return map[string][]int64{"img_new": outv}, map[string]int64{"cSum": int64(acc)}
}

// InteriorIndex reports whether pixel i has all four neighbours in
// range, away from lane-slab boundaries.
func (s SRADSpec) InteriorIndex(i int64) bool {
	cols := int64(s.Cols)
	n := s.GlobalSize()
	if i-cols < 0 || i+cols >= n {
		return false
	}
	if s.Lanes > 1 {
		slab := n / int64(s.Lanes)
		pos := i % slab
		if pos < cols || pos >= slab-cols {
			return false
		}
	}
	return true
}
