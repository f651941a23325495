package kernels

import (
	"fmt"

	"repro/internal/tir"
	"repro/internal/typetrans"
)

// Hotspot fixed-point parameters: ui24 datapath (two DSP elements per
// variable multiplier on an 18-bit-element device, giving the 12 DSPs of
// Table II for the six variable products), temperatures in [0, 2^12),
// material coefficients in [0, 2^6).
const (
	hotspotBits  = 24
	hotspotTMax  = 1 << 12
	hotspotCMax  = 1 << 6
	hotspotPMax  = 1 << 8
	hotspotAmb   = 1600 // ambient temperature (fixed-point)
	hotspotStep  = 21   // time-step coefficient (Q0.4-ish constant)
	hotspotShft1 = 6    // rescale after the flux sum
	hotspotShft2 = 4    // rescale after the step multiply
)

// HotspotSpec describes a design variant of the Rodinia hotspot kernel:
// a 5-point 2-D stencil over an R×C floorplan grid estimating processor
// temperature from simulated power, with per-cell material coefficients
// streamed alongside (which is what makes its multipliers
// variable×variable and therefore DSP-mapped).
type HotspotSpec struct {
	Rows, Cols int
	Lanes      int
}

// DefaultHotspot returns the Table II configuration: the 682-column
// floorplan whose ±682 row offsets need a ~32.8 Kbit window, at 384 rows
// (NGS ≈ 262K work-items, the paper's CPKI scale).
func DefaultHotspot() HotspotSpec { return HotspotSpec{Rows: 384, Cols: 682, Lanes: 1} }

// Name implements Spec.
func (h HotspotSpec) Name() string { return "hotspot" }

// LaneCount implements Spec.
func (h HotspotSpec) LaneCount() int { return h.Lanes }

// GlobalSize implements Spec.
func (h HotspotSpec) GlobalSize() int64 { return int64(h.Rows) * int64(h.Cols) }

// Validate checks the geometry.
func (h HotspotSpec) Validate() error {
	if h.Rows < 2 || h.Cols < 2 {
		return fmt.Errorf("kernels: hotspot grid %dx%d too small", h.Rows, h.Cols)
	}
	return nil
}

// Module implements Spec.
func (h HotspotSpec) Module() (*tir.Module, error) { return Variant(h, h.Lanes) }

// Kernel implements Spec: t, power, rx, ry, rz in; t_new out. The
// datapath computes
//
//	t_new = t + (step · ((Σ flux) >> s1)) >> s2
//	flux  = (t_e−t)·rx + (t_w−t)·rx + (t_n−t)·ry + (t_s−t)·ry
//	      + (amb−t)·rz + power·rz
//
// with every flux product a variable×variable multiplier.
func (h HotspotSpec) Kernel() *typetrans.Kernel {
	ty := tir.UIntT(hotspotBits)
	return &typetrans.Kernel{
		Name:    "hotspot",
		Inputs:  streams(ty, "t", "power", "rx", "ry", "rz"),
		Outputs: streams(ty, "t_new"),
		Body: func(f0 *tir.FuncBuilder, ins, outs []tir.Value) {
			t, power, rx, ry, rz := ins[0], ins[1], ins[2], ins[3], ins[4]
			tnew := outs[0]

			te := f0.NamedOffset("te", t, 1)
			tw := f0.NamedOffset("tw", t, -1)
			tn := f0.NamedOffset("tn", t, -int64(h.Cols))
			ts := f0.NamedOffset("ts", t, int64(h.Cols))

			amb := f0.NamedConst("amb", ty, hotspotAmb)

			de := f0.Sub(te, t)
			dw := f0.Sub(tw, t)
			dn := f0.Sub(tn, t)
			dsouth := f0.Sub(ts, t)
			dz := f0.Sub(amb, t)

			ve := f0.Mul(de, rx)
			vw := f0.Mul(dw, rx)
			vn := f0.Mul(dn, ry)
			vs := f0.Mul(dsouth, ry)
			vz := f0.Mul(dz, rz)
			vp := f0.Mul(power, rz)

			sew := f0.Add(ve, vw)
			sns := f0.Add(vn, vs)
			szp := f0.Add(vz, vp)
			s1 := f0.Add(sew, sns)
			flux := f0.Add(s1, szp)

			fs := f0.BinImm(tir.OpLshr, flux, hotspotShft1)
			dlt := f0.MulImm(fs, hotspotStep)
			dls := f0.BinImm(tir.OpLshr, dlt, hotspotShft2)
			res := f0.Add(t, dls)
			f0.Out(tnew, res)
		},
	}
}

// MakeInputs implements Spec.
func (h HotspotSpec) MakeInputs(seed int64) map[string][]int64 {
	n := h.GlobalSize()
	r := NewLCG(seed)
	t := make([]int64, n)
	power := make([]int64, n)
	rx := make([]int64, n)
	ry := make([]int64, n)
	rz := make([]int64, n)
	r.fill(t, hotspotTMax)
	r.fill(power, hotspotPMax)
	r.fill(rx, hotspotCMax)
	r.fill(ry, hotspotCMax)
	r.fill(rz, hotspotCMax)
	return map[string][]int64{"t": t, "power": power, "rx": rx, "ry": ry, "rz": rz}
}

// Golden implements Spec with the ui24 wrap-around semantics of the
// datapath; out-of-range neighbours read zero.
func (h HotspotSpec) Golden(in map[string][]int64) (map[string][]int64, map[string]int64) {
	t := in["t"]
	power := in["power"]
	rx := in["rx"]
	ry := in["ry"]
	rz := in["rz"]
	n := len(t)
	mask := tir.UIntT(hotspotBits).Mask()
	at := func(a []int64, i int) uint64 {
		if i < 0 || i >= n {
			return 0
		}
		return uint64(a[i]) & mask
	}
	out := make([]int64, n)
	cols := h.Cols
	for i := 0; i < n; i++ {
		tc := at(t, i)
		xr := at(rx, i)
		yr := at(ry, i)
		zr := at(rz, i)
		ve := ((at(t, i+1) - tc) & mask) * xr
		vw := ((at(t, i-1) - tc) & mask) * xr
		vn := ((at(t, i-cols) - tc) & mask) * yr
		vs := ((at(t, i+cols) - tc) & mask) * yr
		vz := ((hotspotAmb - tc) & mask) * zr
		vp := at(power, i) * zr
		flux := (((ve + vw) & mask) + ((vn + vs) & mask) + ((vz + vp) & mask)) & mask
		dlt := ((flux >> hotspotShft1) * hotspotStep) & mask
		out[i] = int64((tc + dlt>>hotspotShft2) & mask)
	}
	return map[string][]int64{"t_new": out}, nil
}

// InteriorIndex reports whether flat index i has all four stencil
// neighbours in range, away from lane-slab boundaries.
func (h HotspotSpec) InteriorIndex(i int64) bool {
	cols := int64(h.Cols)
	n := h.GlobalSize()
	if i-cols < 0 || i+cols >= n {
		return false
	}
	if h.Lanes > 1 {
		slab := n / int64(h.Lanes)
		pos := i % slab
		if pos < cols || pos >= slab-cols {
			return false
		}
	}
	return true
}
