// Package typetrans implements the paper's functional front-end (§II):
// program variants generated through type transformations. A program is
// a nest of maps over a vector; reshaping the vector's type in a size-
// and order-preserving way (reshapeTo) induces a corresponding program
// transformation (map f becomes map^m1 (map^m2 f)), and attaching
// parallelism metadata (par, pipe, seq) to each map level selects a
// point in the FPGA design space (Fig 3).
//
// The paper uses Idris' dependent types to make the transformations
// correct by construction; here the same guarantees — the reshaped type
// has the same size, and flattening restores the original element order
// — are enforced by construction and checked at transform time, with
// property-based tests standing in for the type-level proofs (see the
// substitution table in DESIGN.md).
package typetrans

import (
	"fmt"

	"repro/internal/tir"
)

// Shape is the dimension vector of a (possibly nested) vector type, from
// the outermost dimension inward: the paper's
//
//	Vect km (Vect im*jm t)
//
// is Shape{km, im*jm}.
type Shape []int64

// Size is the total element count of the shape.
func (s Shape) Size() int64 {
	n := int64(1)
	for _, d := range s {
		n *= d
	}
	return n
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape {
	out := make(Shape, len(s))
	copy(out, s)
	return out
}

// Vect is a vector type in the front-end's shape algebra.
type Vect struct {
	Shape Shape
	Elem  tir.Type
}

// NewVect returns the 1-D vector type of the baseline program.
func NewVect(n int64, elem tir.Type) Vect { return Vect{Shape: Shape{n}, Elem: elem} }

// ReshapeTo splits the outermost dimension of v into k parts, returning
// the transformed type: the paper's
//
//	reshapeTo km : Vect (im*jm*km) t -> Vect km (Vect im*jm t)
//
// The transformation is size-preserving by construction and rejected
// unless k divides the dimension (order preservation would otherwise
// need padding, which the prototype does not model).
func ReshapeTo(v Vect, k int64) (Vect, error) {
	if len(v.Shape) == 0 {
		return Vect{}, fmt.Errorf("typetrans: cannot reshape a scalar")
	}
	if k <= 0 {
		return Vect{}, fmt.Errorf("typetrans: reshape factor must be positive, got %d", k)
	}
	outer := v.Shape[0]
	if outer%k != 0 {
		return Vect{}, fmt.Errorf("typetrans: reshapeTo %d does not divide dimension %d", k, outer)
	}
	out := Vect{Elem: v.Elem, Shape: append(Shape{k, outer / k}, v.Shape[1:].Clone()...)}
	if out.Shape.Size() != v.Shape.Size() {
		// Unreachable by construction; kept as the explicit statement of
		// the size-preservation invariant.
		return Vect{}, fmt.Errorf("typetrans: reshape changed size: %d -> %d", v.Shape.Size(), out.Shape.Size())
	}
	return out, nil
}

// StreamSig declares one scalar stream of a kernel.
type StreamSig struct {
	Name string
	Ty   tir.Type
	// Offsets lists the stream offsets the kernel body taps (stencil
	// neighbours); empty for element-wise streams.
	Offsets []int64
}

// Kernel is the scalar function mapped over the vector — the paper's
// p_sor. Body receives the input values (inputs in declaration order,
// offset taps resolved by the builder callback itself via fb) and the
// output port values, and emits the datapath.
type Kernel struct {
	Name    string
	Inputs  []StreamSig
	Outputs []StreamSig
	// Body populates the pipe function's datapath: ins[i] carries the
	// value of Inputs[i], outs[j] the port of Outputs[j].
	Body func(fb *tir.FuncBuilder, ins, outs []tir.Value)
}

// validate checks the kernel is lowerable.
func (k *Kernel) validate() error {
	if k == nil || k.Body == nil {
		return fmt.Errorf("typetrans: kernel has no body")
	}
	if k.Name == "" {
		return fmt.Errorf("typetrans: kernel has no name")
	}
	if len(k.Inputs) == 0 || len(k.Outputs) == 0 {
		return fmt.Errorf("typetrans: kernel %s needs at least one input and one output", k.Name)
	}
	return nil
}

// Program is a map nest applied to a (reshaped) vector: the functional
// program whose type drives the architecture. Modes[i] is the
// parallelism metadata of the map at nesting level i (outermost first);
// the vector's shape always has exactly len(Modes) dimensions mapped
// over, with the innermost map applying the kernel element-wise.
type Program struct {
	Kernel *Kernel
	Vec    Vect
	Modes  []tir.ParMode
}

// Baseline returns the paper's starting point: a single pipelined map
// over the flat vector (ps = map p_sor pps, lowered to one kernel
// pipeline).
func Baseline(k *Kernel, n int64) (*Program, error) {
	if err := k.validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("typetrans: vector size must be positive, got %d", n)
	}
	return &Program{
		Kernel: k,
		Vec:    NewVect(n, k.Inputs[0].Ty),
		Modes:  []tir.ParMode{tir.ModePipe},
	}, nil
}

// Reshape applies reshapeTo k to the program's vector and splits the
// outermost map accordingly: map f becomes map^outer (map^inner f),
// where the existing outermost mode becomes the inner mode and the new
// outer map takes the given mode. This is the program transformation
// the paper infers from the type transformation:
//
//	ps   = map p_sor pps            -- original
//	ppst = reshapeTo km pps         -- reshaped data
//	pst  = mappar (mappipe p_sor) ppst
func (p *Program) Reshape(k int64, outer tir.ParMode) (*Program, error) {
	v, err := ReshapeTo(p.Vec, k)
	if err != nil {
		return nil, err
	}
	if outer != tir.ModePar && outer != tir.ModeSeq {
		return nil, fmt.Errorf("typetrans: outer map mode must be par or seq, got %s", outer)
	}
	modes := append([]tir.ParMode{outer}, p.Modes...)
	return &Program{Kernel: p.Kernel, Vec: v, Modes: modes}, nil
}

// Lanes returns the thread-parallel replication the program implies: the
// product of the dimensions mapped with par.
func (p *Program) Lanes() int64 {
	lanes := int64(1)
	for i, m := range p.Modes {
		if m == tir.ModePar {
			lanes *= p.Vec.Shape[i]
		}
	}
	return lanes
}

// Validate checks the program is lowerable to the supported
// configurations (Fig 7): an optional par/seq outer level over a
// pipelined inner map.
func (p *Program) Validate() error {
	if err := p.Kernel.validate(); err != nil {
		return err
	}
	if len(p.Modes) != len(p.Vec.Shape) {
		return fmt.Errorf("typetrans: %d map levels over rank-%d vector", len(p.Modes), len(p.Vec.Shape))
	}
	if len(p.Modes) == 0 {
		return fmt.Errorf("typetrans: program has no maps")
	}
	if inner := p.Modes[len(p.Modes)-1]; inner != tir.ModePipe {
		return fmt.Errorf("typetrans: innermost map must be pipe, got %s", inner)
	}
	for _, m := range p.Modes[:len(p.Modes)-1] {
		if m != tir.ModePar && m != tir.ModeSeq {
			return fmt.Errorf("typetrans: outer maps must be par or seq, got %s", m)
		}
	}
	if len(p.Modes) > 2 {
		return fmt.Errorf("typetrans: prototype lowers at most two map levels (got %d)", len(p.Modes))
	}
	return nil
}

// Lower translates the program to TyTra-IR: the kernel becomes a pipe
// function, a par outer map replicates it into lanes with per-lane
// stream ports (Fig 14), a seq outer map issues the lane calls
// sequentially, and the Manage-IR memory/stream objects are generated
// for every port.
func (p *Program) Lower() (*tir.Module, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := tir.NewBuilder(p.Kernel.Name)

	// The kernel pipe function.
	f0 := b.Func("f0", tir.ModePipe)
	ins := make([]tir.Value, len(p.Kernel.Inputs))
	outs := make([]tir.Value, len(p.Kernel.Outputs))
	for i, sig := range p.Kernel.Inputs {
		ins[i] = f0.Param(sig.Name, sig.Ty)
	}
	for j, sig := range p.Kernel.Outputs {
		outs[j] = f0.Param(sig.Name, sig.Ty)
	}
	p.Kernel.Body(f0, ins, outs)

	lanes := 1
	outerMode := tir.ModeSeq
	if len(p.Modes) == 2 {
		lanes = int(p.Vec.Shape[0])
		outerMode = p.Modes[0]
	}
	laneSize := p.Vec.Shape.Size() / int64(lanes)

	ports := func(lane int) []tir.Operand {
		suffix := ""
		if lane >= 0 {
			suffix = fmt.Sprintf("%d", lane)
		}
		var ops []tir.Operand
		for _, sig := range p.Kernel.Inputs {
			ops = append(ops, b.GlobalPort("main", sig.Name+suffix, sig.Ty, laneSize, tir.DirIn, tir.PatternContiguous, 1))
		}
		for _, sig := range p.Kernel.Outputs {
			ops = append(ops, b.GlobalPort("main", sig.Name+suffix, sig.Ty, laneSize, tir.DirOut, tir.PatternContiguous, 1))
		}
		return ops
	}

	main := b.Func("main", tir.ModeSeq)
	switch {
	case lanes == 1:
		main.CallOperands("f0", tir.ModePipe, ports(-1)...)
	case outerMode == tir.ModePar:
		par := b.Func("f_lanes", tir.ModePar)
		for l := 0; l < lanes; l++ {
			par.CallOperands("f0", tir.ModePipe, ports(l)...)
		}
		main.CallOperands("f_lanes", tir.ModePar)
	default: // seq outer map: lane slabs processed one after another
		for l := 0; l < lanes; l++ {
			main.CallOperands("f0", tir.ModePipe, ports(l)...)
		}
	}
	return b.Module()
}

// EnumerateLaneVariants generates the design-space slice the Fig 15
// sweep explores: the baseline plus one par-reshaped variant for every
// lane count in [2, maxLanes] that divides n. This is where "the
// design-space grows very quickly even on the basis of a single basic
// reshape transformation" (§II) becomes concrete.
func EnumerateLaneVariants(k *Kernel, n int64, maxLanes int) ([]*Program, error) {
	base, err := Baseline(k, n)
	if err != nil {
		return nil, err
	}
	out := []*Program{base}
	for l := 2; l <= maxLanes; l++ {
		if n%int64(l) != 0 {
			continue
		}
		v, err := base.Reshape(int64(l), tir.ModePar)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
