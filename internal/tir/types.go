// Package tir implements the TyTra Intermediate Representation language
// of §IV of the paper: a strongly, statically typed, SSA, LLVM-inspired
// IR with parallelism extensions (pipe, par, seq, comb) for an FPGA
// target. The package provides the lexer, parser, AST, semantic
// validation, a printer whose output re-parses to the same module, and a
// programmatic builder used by the kernel library and the type-transform
// front-end.
//
// A TyTra-IR design has two components. The Manage-IR declares memory
// objects (sources/sinks of streams — arrays in device or host memory)
// and stream objects that connect memory objects to streaming ports of
// processing elements. The Compute-IR declares stream ports and a
// hierarchy of functions, each tagged with a parallelism keyword, whose
// bodies are SSA instructions over streamed values, including the
// `!offset` pseudo-instruction that creates shifted copies of a stream
// (the stencil-neighbour mechanism of Fig 12).
package tir

import (
	"fmt"
	"strconv"
	"strings"
)

// TypeKind discriminates the scalar type families of the IR.
type TypeKind int

const (
	// UInt is an unsigned integer of Type.Bits width, e.g. ui18.
	UInt TypeKind = iota
	// SInt is a signed two's-complement integer, e.g. i32.
	SInt
	// Float is an IEEE-754 binary float; Bits is 32 or 64.
	Float
)

// Type is a scalar TyTra-IR type. The zero value is "ui0", which is
// invalid; construct types with UIntT, SIntT, FloatT or ParseType.
type Type struct {
	Kind TypeKind
	Bits int
}

// UIntT returns the unsigned integer type of the given width.
func UIntT(bits int) Type { return Type{Kind: UInt, Bits: bits} }

// SIntT returns the signed integer type of the given width.
func SIntT(bits int) Type { return Type{Kind: SInt, Bits: bits} }

// FloatT returns the float type of the given width (32 or 64).
func FloatT(bits int) Type { return Type{Kind: Float, Bits: bits} }

// Valid reports whether t is a type the IR accepts: integers of width
// 1..64, floats of width 32 or 64.
func (t Type) Valid() bool {
	switch t.Kind {
	case UInt, SInt:
		return t.Bits >= 1 && t.Bits <= 64
	case Float:
		return t.Bits == 32 || t.Bits == 64
	}
	return false
}

// IsFloat reports whether t is a float type.
func (t Type) IsFloat() bool { return t.Kind == Float }

// String renders the type in IR syntax: ui18, i32, f32, f64.
func (t Type) String() string {
	switch t.Kind {
	case UInt:
		return "ui" + strconv.Itoa(t.Bits)
	case SInt:
		return "i" + strconv.Itoa(t.Bits)
	case Float:
		return "f" + strconv.Itoa(t.Bits)
	}
	return fmt.Sprintf("?ty(%d,%d)", int(t.Kind), t.Bits)
}

// ParseType parses an IR type name. It accepts uiN, iN, f32 and f64.
func ParseType(s string) (Type, error) {
	var kind TypeKind
	var rest string
	switch {
	case strings.HasPrefix(s, "ui"):
		kind, rest = UInt, s[2:]
	case strings.HasPrefix(s, "f"):
		kind, rest = Float, s[1:]
	case strings.HasPrefix(s, "i"):
		kind, rest = SInt, s[1:]
	default:
		return Type{}, fmt.Errorf("tir: invalid type %q", s)
	}
	bits, err := strconv.Atoi(rest)
	if err != nil {
		return Type{}, fmt.Errorf("tir: invalid type width in %q", s)
	}
	t := Type{Kind: kind, Bits: bits}
	if !t.Valid() {
		return Type{}, fmt.Errorf("tir: unsupported type %q", s)
	}
	return t, nil
}

// Mask returns the bit mask that confines a value to t's width. For
// floats it returns all-ones of the width (floats are never masked
// arithmetically; the mask is used only for raw-bit storage).
func (t Type) Mask() uint64 {
	if t.Bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(t.Bits)) - 1
}

// Wrap confines the two's-complement value v to the width of t,
// reproducing the wrap-around of fixed-width FPGA datapaths. For UInt
// the result is v mod 2^Bits reinterpreted as a non-negative int64 where
// possible; for SInt the result is sign-extended from bit Bits-1.
func (t Type) Wrap(v int64) int64 {
	if t.IsFloat() || t.Bits >= 64 {
		return v
	}
	u := uint64(v) & t.Mask()
	if t.Kind == SInt && u&(uint64(1)<<uint(t.Bits-1)) != 0 {
		u |= ^t.Mask() // sign-extend
	}
	return int64(u)
}

// Bytes returns the storage size of one element in bytes, rounded up to
// a whole byte as the stream controllers pack data on byte boundaries.
func (t Type) Bytes() int { return (t.Bits + 7) / 8 }
