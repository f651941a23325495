package pipesim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/diag"
	"repro/internal/elab"
	"repro/internal/fabric"
	"repro/internal/hdl"
	"repro/internal/tir"
)

// portArgsModule is the module whose seq function @g passes its own
// parameters to a pipe call: tir.Analyze rejects it (TIR040), and so
// must every back end.
const portArgsModule = `%mem_a = memobj ui16, size 64, space global, pattern CONT
%mem_b = memobj ui16, size 64, space global, pattern CONT
%str_a = strobj %mem_a, dir in, port main.a
%str_b = strobj %mem_b, dir out, port main.b
@main.a = addrSpace(12) ui16, !"istream", !"CONT", !0, !"str_a"
@main.b = addrSpace(12) ui16, !"ostream", !"CONT", !0, !"str_b"
define void @f0(ui16 %a, ui16 %b) pipe {
  ui16 %x = add ui16 %a, 1
  out ui16 %b, %x
}
define void @g(ui16 %a, ui16 %b) seq {
  call @f0(%a, %b) pipe
}
define void @main() {
  call @g(@main.a, @main.b) seq
}
`

// combSqrtModule is a pipe that calls a comb block computing sqrt:
// every checker accepts it, and the HDL back end once panicked on it.
const combSqrtModule = `%mem_x = memobj ui16, size 64, space global, pattern CONT
%mem_y = memobj ui16, size 64, space global, pattern CONT
%str_x = strobj %mem_x, dir in, port main.x
%str_y = strobj %mem_y, dir out, port main.y
@main.x = addrSpace(12) ui16, !"istream", !"CONT", !0, !"str_x"
@main.y = addrSpace(12) ui16, !"ostream", !"CONT", !0, !"str_y"
define void @root(ui16 %a, ui16 %r) comb {
  ui16 %s = sqrt ui16 %a
  out ui16 %r, %s
}
define void @f0(ui16 %x, ui16 %y) pipe {
  call @root(%x, %q) comb
  ui16 %z = add ui16 %q, 1
  out ui16 %y, %z
}
define void @main() {
  call @f0(@main.x, @main.y) pipe
}
`

// backEnds runs every back end on the design and returns the first
// error, or a description of a panic.
func backEnds(mdl *costmodel.Model, synth *fabric.Synthesizer, d *elab.Design) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if _, err := costmodel.Lower(d); err != nil {
		return fmt.Errorf("Lower: %w", err)
	}
	if _, err := mdl.Estimate(d); err != nil {
		return fmt.Errorf("Estimate: %w", err)
	}
	if _, err := Compile(d); err != nil {
		return fmt.Errorf("Compile: %w", err)
	}
	synth.Synthesize(d)
	if _, err := hdl.Emit(d); err != nil {
		return fmt.Errorf("Emit: %w", err)
	}
	return nil
}

// FuzzAcceptanceParity asserts one verdict: below the instance bound,
// costmodel.Lower, Model.Estimate, Compile, fabric's Synthesize and
// hdl.Emit each accept a design exactly when elab.Elaborate accepts
// its module, and none of them panics; the module-taking entries
// (Model.Compile, CompileConfig) reject exactly what Elaborate
// rejects. The corpus is FuzzCompile's (the IR corpora, good and bad,
// with their mutations, and par-lane random kernels), single-lane
// random kernels, and the two modules above.
func FuzzAcceptanceParity(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	g := &kernelGen{}
	for seed := uint64(1); seed <= 8; seed++ {
		m, _, _ := g.build(seed)
		f.Add(m.String())
	}
	f.Add(portArgsModule)
	f.Add(combSqrtModule)
	// A stream offset inside a comb block: Check rejects it (TIR034).
	f.Add(strings.Replace(combSqrtModule, "sqrt ui16 %a", "ui16 %a, !offset, !+1", 1))
	tgt := device.StratixVGSD8()
	mdl, err := costmodel.Calibrate(tgt)
	if err != nil {
		f.Fatal(err)
	}
	synth := fabric.New(tgt)
	f.Fuzz(func(t *testing.T, src string) {
		m, err := tir.ParseOnly("fuzz.tirl", src)
		if err != nil {
			return
		}
		d, err := elab.Elaborate(m)
		_, cmErr := mdl.Compile(m)
		_, ccErr := CompileConfig(m, defaultConfig)
		if err != nil {
			if cmErr == nil || ccErr == nil {
				t.Errorf("Elaborate rejects (%v), Model.Compile %v, CompileConfig %v", err, cmErr, ccErr)
			}
			return
		}
		if d.Instances() > elab.MaxInstances {
			return
		}
		if cmErr != nil || ccErr != nil {
			t.Errorf("Elaborate accepts, Model.Compile %v, CompileConfig %v", cmErr, ccErr)
		}
		if err := backEnds(mdl, synth, d); err != nil {
			t.Errorf("Elaborate accepts, %v\n%s", err, src)
		}
	})
}

// TestPortArgsRejectedEverywhere: the @g module is rejected with TIR040
// on every path from a module to a back end.
func TestPortArgsRejectedEverywhere(t *testing.T) {
	m, err := tir.ParseOnly("g.tirl", portArgsModule)
	if err != nil {
		t.Fatal(err)
	}
	mdl, err := costmodel.Calibrate(device.StratixVGSD8())
	if err != nil {
		t.Fatal(err)
	}
	_, elabErr := elab.Elaborate(m)
	_, cmErr := mdl.Compile(m)
	_, ccErr := CompileConfig(m, defaultConfig)
	_, runErr := RunOracle(m, nil)
	for what, err := range map[string]error{
		"Elaborate": elabErr, "Model.Compile": cmErr, "CompileConfig": ccErr, "RunOracle": runErr,
	} {
		l := diag.AsList(err, "")
		if len(l) == 0 || l[0].Code != tir.CodePortWiring {
			t.Errorf("%s: got %v, want a %s error", what, err, tir.CodePortWiring)
		}
	}
}

// TestGeneratedChain elaborates chains of k functions, each seq
// function calling the next twice (2^(k-1) instances of the leaf), up
// to k = 64. Elaboration and the estimate take allocations linear in k
// where a per-path walk doubles per function; a count past int64, or a
// lane shape past int, is an overflow error; and the back ends that
// materialise instances reject a chain over the bound before expanding
// anything.
func TestGeneratedChain(t *testing.T) {
	mdl, err := costmodel.Calibrate(device.StratixVGSD8())
	if err != nil {
		t.Fatal(err)
	}
	parse := func(k int) *tir.Module {
		m, err := tir.Parse("chain", chainSrc(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		return m
	}
	allocs := func(k int) float64 {
		m := parse(k)
		return testing.AllocsPerRun(5, func() {
			d, err := elab.Elaborate(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mdl.Estimate(d); err != nil {
				t.Fatal(err)
			}
		})
	}
	a20, a40, a60 := allocs(20), allocs(40), allocs(60)
	t.Logf("Elaborate+Estimate allocs: %.0f at k=20, %.0f at k=40, %.0f at k=60", a20, a40, a60)
	// Linear growth is (a60-a40) == (a40-a20); allow slack for map
	// growth, far below the 2^20x of a per-path walk.
	if a60-a40 > 2*(a40-a20)+16 {
		t.Errorf("allocations grow faster than linear in k: %.0f, %.0f, %.0f", a20, a40, a60)
	}

	if _, err := elab.Elaborate(parse(64)); err == nil || diag.AsList(err, "")[0].Code != tir.CodeInstanceBound {
		t.Errorf("k=64: got %v, want a %s overflow error", err, tir.CodeInstanceBound)
	}
	// At k = 63 the leaf's 2^62 instances fit an int64; the lane's
	// instruction count, 2^62 times two, does not.
	d63, err := elab.Elaborate(parse(63))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mdl.Estimate(d63); err == nil {
		t.Error("k=63: overflowing lane shape priced")
	}
	if _, err := costmodel.Lower(d63); err == nil {
		t.Error("k=63: overflowing lane shape lowered")
	}

	d, err := elab.Elaborate(parse(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mdl.Estimate(d); err != nil {
		t.Errorf("k=16: Estimate: %v", err)
	}
	_, compileErr := Compile(d)
	_, oracleErr := RunOracle(d.Module(), nil)
	_, emitErr := hdl.Emit(d)
	for what, err := range map[string]error{"Compile": compileErr, "RunOracle": oracleErr, "Emit": emitErr} {
		if l := diag.AsList(err, ""); len(l) != 1 || l[0].Code != tir.CodeInstanceBound {
			t.Errorf("k=16 %s: got %v, want a %s error", what, err, tir.CodeInstanceBound)
		}
	}
}
