//go:build ignore

// corpus_gen regenerates the surface-syntax corpus under testdata/.
// Each file demonstrates one structural feature the front stage must
// keep accepting (see TestCorpusShapes). Run from this directory:
//
//	go run corpus_gen.go
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/elab"
	"repro/internal/tir"
)

func main() {
	corpus := map[string]func() (*tir.Module, error){
		"parlanes.tirl":  parlanes,
		"combblock.tirl": combblock,
		"floatpipe.tirl": floatpipe,
		"movavg.tirl":    movavg,
	}
	for name, build := range corpus {
		m, err := build()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		// The corpus is read back by Parse and must elaborate, so
		// pin both here.
		m2, err := tir.Parse(m.Name, m.String())
		if err != nil {
			log.Fatalf("%s: printed form does not re-parse: %v", name, err)
		}
		if _, err := elab.Elaborate(m2); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join("testdata", name)
		if err := os.WriteFile(path, []byte(m.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}
}

// parlanes is the Fig 14 idiom: a par wrapper replicating one pipeline
// kernel across two lanes, each with its own top-level stream ports.
func parlanes() (*tir.Module, error) {
	b := tir.NewBuilder("parlanes")
	ty := tir.UIntT(18)

	f0 := b.Func("f0", tir.ModePipe)
	x := f0.Param("x", ty)
	y := f0.Param("y", ty)
	scaled := f0.MulImm(x, 5)
	f0.Out(y, f0.BinImm(tir.OpLshr, scaled, 2))

	main := b.Func("main", tir.ModeSeq)
	par := b.Func("f_lanes", tir.ModePar)
	for l := 0; l < 2; l++ {
		in := b.GlobalPort("main", fmt.Sprintf("x%d", l), ty, 512, tir.DirIn, tir.PatternContiguous, 1)
		out := b.GlobalPort("main", fmt.Sprintf("y%d", l), ty, 512, tir.DirOut, tir.PatternContiguous, 1)
		par.CallOperands("f0", tir.ModePipe, in, out)
	}
	main.CallOperands("f_lanes", tir.ModePar)
	return b.Module()
}

// combblock inlines a custom single-cycle combinatorial block (Fig 8)
// into a pipeline: @clamp saturates its input and drives the wire bound
// to its %r parameter at the call site.
func combblock() (*tir.Module, error) {
	b := tir.NewBuilder("combblock")
	ty := tir.UIntT(18)

	clamp := b.Func("clamp", tir.ModeComb)
	x := clamp.Param("x", ty)
	r := clamp.Param("r", ty)
	lim := clamp.NamedConst("lim", ty, 255)
	over := clamp.Cmp("ugt", x, lim)
	clamp.Out(r, clamp.Select(over, lim, x))

	f0 := b.Func("f0", tir.ModePipe)
	a := f0.Param("a", ty)
	q := f0.Param("q", ty)
	sum := f0.Add(f0.Offset(a, 1), a)
	f0.CallOperands("clamp", tir.ModeComb, sum.Op, tir.Reg("sat"))
	f0.Out(q, tir.Value{Op: tir.Reg("sat"), Ty: ty})

	main := b.Func("main", tir.ModeSeq)
	in := b.GlobalPort("main", "a", ty, 1024, tir.DirIn, tir.PatternContiguous, 1)
	out := b.GlobalPort("main", "q", ty, 1024, tir.DirOut, tir.PatternContiguous, 1)
	main.CallOperands("f0", tir.ModePipe, in, out)
	return b.Module()
}

// floatpipe is a single-precision pipeline: an axpy-style step whose
// IEEE-754 operators exercise the float opcode path.
func floatpipe() (*tir.Module, error) {
	b := tir.NewBuilder("floatpipe")
	ty := tir.FloatT(32)

	f0 := b.Func("f0", tir.ModePipe)
	u := f0.Param("u", ty)
	v := f0.Param("v", ty)
	w := f0.Param("w", ty)
	alpha := f0.NamedConst("alpha", ty, 0x3FC00000) // 1.5f
	f0.Out(w, f0.Bin(tir.OpFAdd, f0.Bin(tir.OpFMul, alpha, u), v))

	main := b.Func("main", tir.ModeSeq)
	pu := b.GlobalPort("main", "u", ty, 4096, tir.DirIn, tir.PatternContiguous, 1)
	pv := b.GlobalPort("main", "v", ty, 4096, tir.DirIn, tir.PatternContiguous, 1)
	pw := b.GlobalPort("main", "w", ty, 4096, tir.DirOut, tir.PatternContiguous, 1)
	main.CallOperands("f0", tir.ModePipe, pu, pv, pw)
	return b.Module()
}

// movavg is a three-tap moving average: a symmetric ±1 stencil whose
// look-ahead of one element sizes the smallest non-trivial offset
// window the scheduler must prime.
func movavg() (*tir.Module, error) {
	b := tir.NewBuilder("movavg")
	ty := tir.UIntT(18)

	f0 := b.Func("f0", tir.ModePipe)
	u := f0.Param("u", ty)
	s := f0.Param("s", ty)
	up := f0.NamedOffset("up", u, 1)
	un := f0.NamedOffset("un", u, -1)
	sum := f0.Add(f0.Add(up, un), u)
	// *85 >> 8 approximates /3 in fixed point.
	f0.Out(s, f0.BinImm(tir.OpLshr, f0.MulImm(sum, 85), 8))

	main := b.Func("main", tir.ModeSeq)
	in := b.GlobalPort("main", "u", ty, 2048, tir.DirIn, tir.PatternContiguous, 1)
	out := b.GlobalPort("main", "s", ty, 2048, tir.DirOut, tir.PatternContiguous, 1)
	main.CallOperands("f0", tir.ModePipe, in, out)
	return b.Module()
}
