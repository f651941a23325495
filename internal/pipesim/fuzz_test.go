package pipesim

import (
	"fmt"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/schedule"
	"repro/internal/tir"
)

// kernelGen builds random-but-valid streaming kernels: a DAG of
// arithmetic over a configurable number of input streams, optional
// stencil offsets, one output and one accumulator. It drives the
// cross-validation properties below — for ANY kernel the generator can
// express, the simulator, the golden interpreter, the scheduler and the
// cost model must stay mutually consistent.
type kernelGen struct {
	state uint64
	// par, when set, wraps f0 in a par node of 2–4 lanes on about half
	// the seeds, each lane on streams of its own: the lanes share one
	// compiled body.
	par bool
}

func (g *kernelGen) next() uint64 {
	g.state = g.state*6364136223846793005 + 1442695040888963407
	return g.state >> 17
}

func (g *kernelGen) intn(n int) int { return int(g.next() % uint64(n)) }

// binOps are the two-operand opcodes the generator draws from.
var binOps = []tir.Opcode{
	tir.OpAdd, tir.OpSub, tir.OpMul, tir.OpAnd, tir.OpOr, tir.OpXor,
	tir.OpMin, tir.OpMax, tir.OpLshr, tir.OpShl,
}

// build constructs a random module plus matching input data.
func (g *kernelGen) build(seed uint64) (*tir.Module, map[string][]int64, int64) {
	g.state = seed*2654435761 + 1
	ty := tir.UIntT(16 + g.intn(3)*8) // ui16, ui24 or ui32
	nIn := 1 + g.intn(3)
	nOps := 3 + g.intn(12)
	size := int64(32 + g.intn(64))

	b := tir.NewBuilder("fuzz")
	f0 := b.Func("f0", tir.ModePipe)

	var vals []tir.Value
	inNames := make([]string, nIn)
	for i := 0; i < nIn; i++ {
		inNames[i] = "in" + string(rune('a'+i))
		vals = append(vals, f0.Param(inNames[i], ty))
	}
	out := f0.Param("q", ty)

	// Optional stencil offsets on the first stream.
	if g.intn(2) == 1 {
		off := int64(1 + g.intn(5))
		if g.intn(2) == 1 {
			off = -off
		}
		vals = append(vals, f0.Offset(vals[0], off))
	}

	for i := 0; i < nOps; i++ {
		op := binOps[g.intn(len(binOps))]
		a := vals[g.intn(len(vals))]
		var v tir.Value
		switch g.intn(3) {
		case 0: // immediate operand (strength-reduced in hardware)
			v = f0.BinImm(op, a, int64(1+g.intn(15)))
		case 1: // unary
			v = f0.Un(tir.OpAbs, a)
		default:
			bb := vals[g.intn(len(vals))]
			v = f0.Bin(op, a, bb)
		}
		vals = append(vals, v)
	}
	last := vals[len(vals)-1]
	f0.Out(out, last)
	f0.Accumulate("acc", tir.OpAdd, last)

	lanes := 1
	if g.par && g.intn(2) == 1 {
		lanes = 2 + g.intn(3)
	}
	// laneName suffixes lane l's port names; lane 0 keeps the bare ones.
	laneName := func(name string, l int) string {
		if l == 0 {
			return name
		}
		return fmt.Sprintf("%s_%d", name, l)
	}
	main := b.Func("main", tir.ModeSeq)
	caller := main
	if lanes > 1 {
		caller = b.Func("f_lanes", tir.ModePar)
		main.CallOperands("f_lanes", tir.ModePar)
	}
	for l := 0; l < lanes; l++ {
		var ops []tir.Operand
		for _, n := range inNames {
			ops = append(ops, b.GlobalPort("main", laneName(n, l), ty, size, tir.DirIn, tir.PatternContiguous, 1))
		}
		ops = append(ops, b.GlobalPort("main", laneName("q", l), ty, size, tir.DirOut, tir.PatternContiguous, 1))
		caller.CallOperands("f0", tir.ModePipe, ops...)
	}

	mem := map[string][]int64{}
	for l := 0; l < lanes; l++ {
		for _, n := range inNames {
			data := make([]int64, size)
			for i := range data {
				data[i] = int64(g.next()) & int64(ty.Mask())
			}
			mem["mem_main_"+laneName(n, l)] = data
		}
	}
	return b.MustModule(), mem, size
}

// interpret is an independent reference evaluator: straight-line
// execution of the body per index with map-based environments, written
// without sharing code with the simulator.
func interpret(t *testing.T, m *tir.Module, mem map[string][]int64, size int64) ([]int64, int64) {
	t.Helper()
	f := m.Func("f0")
	out := make([]int64, size)
	var acc int64
	ports := m.Main().Calls()[0].Args
	binding := map[string][]int64{}
	for k, p := range f.Params {
		port := m.Port(ports[k].Name)
		so := m.Stream(port.Stream)
		if port.Dir == tir.DirIn {
			binding[p.Name] = mem[so.Mem]
		}
	}
	for i := int64(0); i < size; i++ {
		env := map[string]int64{}
		for name, data := range binding {
			env[name] = data[i]
		}
		for _, in := range f.Body {
			switch it := in.(type) {
			case *tir.OffsetInstr:
				src := binding[it.Src.Name]
				j := i + it.Offset
				if j >= 0 && j < size {
					env[it.Dst] = src[j]
				} else {
					env[it.Dst] = 0
				}
			case *tir.BinInstr:
				read := func(o tir.Operand) int64 {
					switch o.Kind {
					case tir.OpImm:
						return o.Imm
					case tir.OpGlobal:
						return acc
					}
					return env[o.Name]
				}
				v, err := tir.EvalBin(it.Op, it.Ty, read(it.A), read(it.B))
				if err != nil {
					t.Fatal(err)
				}
				if it.GlobalDst {
					acc = v
				} else {
					env[it.Dst] = v
				}
			case *tir.UnInstr:
				v, err := tir.EvalUn(it.Op, it.Ty, env[it.A.Name])
				if err != nil {
					t.Fatal(err)
				}
				env[it.Dst] = v
			case *tir.OutInstr:
				out[i] = env[it.Val.Name]
			}
		}
	}
	return out, acc
}

func TestRandomKernelsSimMatchesInterpreter(t *testing.T) {
	// 60 random kernels: simulator output must match the independent
	// interpreter bit for bit, including the accumulator.
	g := &kernelGen{}
	for seed := uint64(1); seed <= 60; seed++ {
		m, mem, size := g.build(seed)
		res, err := run(m, mem)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, m)
		}
		want, wantAcc := interpret(t, m, mem, size)
		got := res.Mem["mem_main_q"]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: q[%d] = %d, want %d\n%s", seed, i, got[i], want[i], m)
			}
		}
		if res.Acc["acc"] != wantAcc {
			t.Fatalf("seed %d: acc = %d, want %d", seed, res.Acc["acc"], wantAcc)
		}
	}
}

func TestRandomKernelsCompiledMatchesOracle(t *testing.T) {
	// Differential executor fuzzing: every module the generator can
	// express must produce an identical Result — memory contents,
	// accumulators, cycles and item count — from the compiled executor
	// and the retained interpreter. This is the contract that lets the
	// compiled path replace the oracle everywhere. About half the
	// kernels replicate f0 over par lanes that share its compiled body.
	g := &kernelGen{par: true}
	for seed := uint64(1); seed <= 80; seed++ {
		m, mem, _ := g.build(seed)
		d, err := CompileConfig(m, testConfig)
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, m)
		}
		got, err := d.NewInstance().Run(mem)
		if err != nil {
			t.Fatalf("seed %d: compiled run: %v\n%s", seed, err, m)
		}
		want, err := RunOracle(m, mem)
		if err != nil {
			t.Fatalf("seed %d: oracle run: %v\n%s", seed, err, m)
		}
		requireIdenticalResult(t, fmt.Sprintf("seed %d", seed), got, want)
	}
}

func TestRandomKernelsCPKIConsistent(t *testing.T) {
	// The cost model's CPKI estimate must stay within a tight band of
	// the simulated cycles for every random kernel (Table II's CPKI
	// accuracy, generalised beyond the three handkernels).
	tgt := device.StratixVGSD8()
	mdl, err := costmodel.Calibrate(tgt)
	if err != nil {
		t.Fatal(err)
	}
	g := &kernelGen{}
	for seed := uint64(100); seed < 140; seed++ {
		m, mem, size := g.build(seed)
		res, err := run(m, mem)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		est, err := mdl.Estimate(elaborate(t, m))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cpki := est.CPKI(size)
		diff := float64(cpki-res.Cycles) / float64(res.Cycles)
		if diff < -0.20 || diff > 0.20 {
			t.Errorf("seed %d: estimated CPKI %d vs simulated %d (%.1f%%)",
				seed, cpki, res.Cycles, diff*100)
		}
	}
}

func TestRandomKernelsScheduleInvariants(t *testing.T) {
	// Scheduling succeeds for every generated kernel, depth bounds hold,
	// and synthesis-side cycle accounting agrees with the simulator's
	// item count.
	g := &kernelGen{}
	for seed := uint64(200); seed < 240; seed++ {
		m, _, _ := g.build(seed)
		f := m.Func("f0")
		sch, err := schedule.ASAPIn(m, f)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sch.Depth < 1 {
			t.Errorf("seed %d: depth %d < 1", seed, sch.Depth)
		}
		for _, d := range sch.Delays {
			if d.Cycles <= 0 || d.Bits <= 0 {
				t.Errorf("seed %d: degenerate delay %+v", seed, d)
			}
		}
	}
}
