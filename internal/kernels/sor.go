package kernels

import (
	"fmt"

	"repro/internal/tir"
	"repro/internal/typetrans"
)

// SOR fixed-point constants. The weights are the Q0.4 (×16) encodings of
// the LES solver's relaxation coefficients; all are applied as constant
// multiplications, which the back-end strength-reduces to LUT shift-add
// trees — the reason the integer SOR kernel uses no DSP blocks at all
// (Table II).
const (
	sorCn1   = 13 // ~0.8125: combined weight
	sorCn2l  = 18 // ~1.125:  i+1 neighbour
	sorCn2s  = 14 // ~0.875:  i-1 neighbour
	sorCn3l  = 17 // ~1.0625: j+1 neighbour
	sorCn3s  = 15 // ~0.9375: j-1 neighbour
	sorCn4l  = 19 // ~1.1875: k+1 neighbour
	sorCn4s  = 13 // ~0.8125: k-1 neighbour
	sorOmega = 19 // ~1.1875: over-relaxation factor
	sorQ     = 4  // fraction bits of the Q encoding
	sorBits  = 18 // stream element width (the ui18 of Fig 12)
	sorPMax  = 1 << 10
)

// SORSpec describes one design variant of the successive over-relaxation
// kernel: the 3-D grid dimensions and the number of parallel pipeline
// lanes (1 = the baseline single-pipeline configuration of Fig 12;
// >1 = the reshaped multi-lane configuration of Fig 14).
type SORSpec struct {
	IM, JM, KM int
	Lanes      int
}

// DefaultSOR returns the configuration used for the Table II accuracy
// experiment: a single pipeline over a 15×10×16 grid, whose k-offset of
// ±150 elements produces the ~5.4 Kbit offset window the paper reports.
func DefaultSOR() SORSpec { return SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 1} }

// Fig15SOR returns the workload of the Fig 15 design-space exploration,
// single pipeline: a ~14.4M-point NDRange whose KM = 96,096 is divisible
// by every lane count in 1..16.
func Fig15SOR() SORSpec { return SORSpec{IM: 15, JM: 10, KM: 96096, Lanes: 1} }

// Name implements Spec.
func (s SORSpec) Name() string { return "sor" }

// LaneCount implements Spec.
func (s SORSpec) LaneCount() int { return s.Lanes }

// GlobalSize implements Spec: NGS = im·jm·km.
func (s SORSpec) GlobalSize() int64 { return int64(s.IM) * int64(s.JM) * int64(s.KM) }

// Validate checks the geometry.
func (s SORSpec) Validate() error {
	if s.IM < 2 || s.JM < 2 || s.KM < 1 {
		return fmt.Errorf("kernels: sor grid %dx%dx%d too small", s.IM, s.JM, s.KM)
	}
	return nil
}

// Module implements Spec.
func (s SORSpec) Module() (*tir.Module, error) { return Variant(s, s.Lanes) }

// Kernel implements Spec: p and rhs in, p_new out. The body follows
// Fig 12: offset streams for the six cardinal neighbours,
// constant-multiply/add datapath, output stream and the global
// sorErrAcc reduction.
func (s SORSpec) Kernel() *typetrans.Kernel {
	ty := tir.UIntT(sorBits)
	return &typetrans.Kernel{
		Name:    "sor",
		Inputs:  streams(ty, "p", "rhs"),
		Outputs: streams(ty, "p_new"),
		Body: func(f0 *tir.FuncBuilder, ins, outs []tir.Value) {
			p, rhs, pnew := ins[0], ins[1], outs[0]

			// Stream offsets: the six cardinal neighbours of the 7-point
			// stencil (lines 6-9 of Fig 12).
			pip1 := f0.NamedOffset("pip1", p, 1)
			pin1 := f0.NamedOffset("pin1", p, -1)
			pjp1 := f0.NamedOffset("pjp1", p, int64(s.IM))
			pjn1 := f0.NamedOffset("pjn1", p, -int64(s.IM))
			pkp1 := f0.NamedOffset("pkp1", p, int64(s.IM*s.JM))
			pkn1 := f0.NamedOffset("pkn1", p, -int64(s.IM*s.JM))

			// Weighted neighbour sum (Q10.4).
			m2l := f0.MulImm(pip1, sorCn2l)
			m2s := f0.MulImm(pin1, sorCn2s)
			m3l := f0.MulImm(pjp1, sorCn3l)
			m3s := f0.MulImm(pjn1, sorCn3s)
			m4l := f0.MulImm(pkp1, sorCn4l)
			m4s := f0.MulImm(pkn1, sorCn4s)
			s2 := f0.Add(m2l, m2s)
			s3 := f0.Add(m3l, m3s)
			s4 := f0.Add(m4l, m4s)
			s23 := f0.Add(s2, s3)
			sum := f0.Add(s23, s4)

			// reltmp = omega*(cn1*(sum - rhs)) - p, rescaled between
			// stages so the Q10.x intermediates stay inside the ui18
			// datapath.
			rhss := f0.MulImm(rhs, 1<<sorQ)
			diff := f0.Sub(sum, rhss)
			ds := f0.BinImm(tir.OpLshr, diff, sorQ)
			t1 := f0.MulImm(ds, sorCn1)
			t1s := f0.BinImm(tir.OpLshr, t1, sorQ)
			t2 := f0.MulImm(t1s, sorOmega)
			reltmp := f0.BinImm(tir.OpLshr, t2, sorQ)
			rel := f0.Sub(reltmp, p)

			// p_new = reltmp + p (the paper's formulation keeps the -p / +p
			// pair explicit; the back-end does not fold it).
			res := f0.Add(rel, p)
			f0.Out(pnew, res)

			// Residual reduction (line 15 of Fig 12).
			f0.Accumulate("sorErrAcc", tir.OpAdd, rel)
		},
	}
}

// MakeInputs implements Spec: pressures in [0, 2^10), right-hand sides
// in [0, 2^8).
func (s SORSpec) MakeInputs(seed int64) map[string][]int64 {
	n := s.GlobalSize()
	r := NewLCG(seed)
	p := make([]int64, n)
	rhs := make([]int64, n)
	r.fill(p, sorPMax)
	r.fill(rhs, 1<<8)
	return map[string][]int64{"p": p, "rhs": rhs}
}

// Golden implements Spec: the reference SOR sweep with the exact
// fixed-width wrap-around semantics of the ui18 datapath. Out-of-range
// stencil neighbours read zero, matching the stream controller's
// zero-fill at stream edges.
func (s SORSpec) Golden(in map[string][]int64) (map[string][]int64, map[string]int64) {
	p := in["p"]
	rhs := in["rhs"]
	n := len(p)
	mask := tir.UIntT(sorBits).Mask()
	at := func(a []int64, i int) uint64 {
		if i < 0 || i >= n {
			return 0
		}
		return uint64(a[i]) & mask
	}
	pn := make([]int64, n)
	var errAcc uint64
	im, jm := s.IM, s.JM
	for i := 0; i < n; i++ {
		sum := (at(p, i+1)*sorCn2l + at(p, i-1)*sorCn2s +
			at(p, i+im)*sorCn3l + at(p, i-im)*sorCn3s +
			at(p, i+im*jm)*sorCn4l + at(p, i-im*jm)*sorCn4s) & mask
		diff := (sum - at(rhs, i)<<sorQ) & mask
		t1 := ((diff >> sorQ) * sorCn1) & mask
		t2 := ((t1 >> sorQ) * sorOmega) & mask
		rel := (t2>>sorQ - at(p, i)) & mask
		pn[i] = int64((rel + at(p, i)) & mask)
		errAcc = (errAcc + rel) & mask
	}
	return map[string][]int64{"p_new": pn}, map[string]int64{"sorErrAcc": int64(errAcc)}
}

// InteriorIndex reports whether the flat index i is an interior point of
// the 3-D grid: all six neighbours in range and, for a multi-lane
// variant, not adjacent to a lane-slab boundary (where zero-fill differs
// from the single-pipeline reference).
func (s SORSpec) InteriorIndex(i int64) bool {
	plane := int64(s.IM * s.JM)
	n := s.GlobalSize()
	if i-plane < 0 || i+plane >= n {
		return false
	}
	if s.Lanes > 1 {
		slab := n / int64(s.Lanes)
		pos := i % slab
		if pos < plane || pos >= slab-plane {
			return false
		}
	}
	return true
}
