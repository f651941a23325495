package kernels

import (
	"fmt"

	"repro/internal/tir"
	"repro/internal/typetrans"
)

// SORF32Spec is the single-precision floating-point formulation of the
// SOR kernel — the form the paper's own case study synthesises (the
// integer version of SORSpec is what Table II evaluates). It exists for
// costing and HDL generation: floating-point operators are not
// evaluated by the pipeline simulator, but the cost model, the
// synthesis substrate and the scheduler handle them fully, which is
// enough to size the design and place the Fig 15 walls.
//
// One f32 lane costs roughly 11x the ALUTs of the integer lane (eight
// multiplies and seven adds in IEEE-754 cores vs shift-add trees),
// which is why the integer sweep needs the scaled GSD8Edu target to
// show walls — see TestF32LaneJustifiesEduScaling.
type SORF32Spec struct {
	IM, JM, KM int
	Lanes      int
}

// DefaultSORF32 mirrors the paper's case-study kernel configuration.
func DefaultSORF32() SORF32Spec { return SORF32Spec{IM: 96, JM: 96, KM: 96, Lanes: 1} }

// Name implements the Spec naming convention.
func (s SORF32Spec) Name() string { return "sor-f32" }

// GlobalSize is NGS.
func (s SORF32Spec) GlobalSize() int64 { return int64(s.IM) * int64(s.JM) * int64(s.KM) }

// LaneCount returns KNL.
func (s SORF32Spec) LaneCount() int { return s.Lanes }

// Validate checks the geometry.
func (s SORF32Spec) Validate() error {
	if s.IM < 2 || s.JM < 2 || s.KM < 1 {
		return fmt.Errorf("kernels: sor-f32 grid %dx%dx%d too small", s.IM, s.JM, s.KM)
	}
	return nil
}

// Module builds the design variant at s.Lanes lanes, as Variant does for
// a Spec.
func (s SORF32Spec) Module() (*tir.Module, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return lower(s.Kernel(), s.GlobalSize(), s.Lanes)
}

// Kernel declares the f32 pipe function: the same dataflow as Fig 12/13
// with IEEE-754 operators and genuinely fractional coefficients.
func (s SORF32Spec) Kernel() *typetrans.Kernel {
	ty := tir.FloatT(32)
	return &typetrans.Kernel{
		Name:    "sorf32",
		Inputs:  streams(ty, "p", "rhs"),
		Outputs: streams(ty, "p_new"),
		Body: func(f0 *tir.FuncBuilder, ins, outs []tir.Value) {
			p, rhs, pnew := ins[0], ins[1], outs[0]

			pip1 := f0.NamedOffset("pip1", p, 1)
			pin1 := f0.NamedOffset("pin1", p, -1)
			pjp1 := f0.NamedOffset("pjp1", p, int64(s.IM))
			pjn1 := f0.NamedOffset("pjn1", p, -int64(s.IM))
			pkp1 := f0.NamedOffset("pkp1", p, int64(s.IM*s.JM))
			pkn1 := f0.NamedOffset("pkn1", p, -int64(s.IM*s.JM))

			// Coefficient streams would be scalars in MaxJ; here they are
			// constants folded at the call boundary, so each weight is a
			// full variable f32 multiplier (the paper's kernel does the
			// same).
			weights := []struct {
				v    tir.Value
				bits int64
			}{
				{pip1, 0x3F900000}, // 1.125
				{pin1, 0x3F600000}, // 0.875
				{pjp1, 0x3F880000}, // 1.0625
				{pjn1, 0x3F700000}, // 0.9375
				{pkp1, 0x3F980000}, // 1.1875
				{pkn1, 0x3F500000}, // 0.8125
			}
			var terms []tir.Value
			for i, w := range weights {
				c := f0.NamedConst(fmt.Sprintf("w%d", i), ty, w.bits)
				terms = append(terms, f0.Bin(tir.OpFMul, w.v, c))
			}
			s2 := f0.Bin(tir.OpFAdd, terms[0], terms[1])
			s3 := f0.Bin(tir.OpFAdd, terms[2], terms[3])
			s4 := f0.Bin(tir.OpFAdd, terms[4], terms[5])
			s23 := f0.Bin(tir.OpFAdd, s2, s3)
			sum := f0.Bin(tir.OpFAdd, s23, s4)

			diff := f0.Bin(tir.OpFSub, sum, rhs)
			cn1 := f0.NamedConst("cn1", ty, 0x3F500000)     // 0.8125
			omega := f0.NamedConst("omega", ty, 0x3F980000) // 1.1875
			t1 := f0.Bin(tir.OpFMul, diff, cn1)
			t2 := f0.Bin(tir.OpFMul, t1, omega)
			rel := f0.Bin(tir.OpFSub, t2, p)
			res := f0.Bin(tir.OpFAdd, rel, p)
			f0.Out(pnew, res)
			f0.Accumulate("sorErrAcc", tir.OpFAdd, rel)
		},
	}
}
