// Package kernels provides the HPC scientific kernels the cost model is
// evaluated on: the paper's three (§VI-B, Table II), SRAD, and an f32
// form of SOR.
//
//   - SOR: the successive over-relaxation pressure solver from the Large
//     Eddy Simulator weather model — a 7-point 3-D stencil.
//   - Hotspot: the Rodinia processor-temperature benchmark — a 5-point
//     2-D stencil with per-cell material coefficients.
//   - LavaMD: the Rodinia molecular-dynamics benchmark — an element-wise
//     particle-pair potential/force computation.
//   - SRAD: Rodinia's speckle-reducing anisotropic diffusion, a 5-point
//     stencil with data-dependent control.
//
// Each kernel comes in three coupled forms that the tests hold to the
// same behaviour: a golden Go implementation (the scientific reference,
// computed with the same fixed-width wrap-around semantics as the
// generated hardware), a scalar pipe function declared once as a
// typetrans.Kernel, whose lane variants (§II) Variant builds through
// the front end's reshapeTo lowering, and a deterministic workload
// generator. One table lists the kernels the command-line tools name
// (Names, Lookup).
//
// As in the paper, the kernels are integer (fixed-point) versions of the
// original floating-point codes.
package kernels

import (
	"fmt"
	"strings"

	"repro/internal/tir"
	"repro/internal/typetrans"
)

// Spec is a kernel specification: enough to build the IR design variant,
// generate a workload, and predict the correct output.
type Spec interface {
	// Name identifies the kernel ("sor", "hotspot", "lavamd", "srad").
	Name() string
	// Validate checks the geometry.
	Validate() error
	// Kernel declares the pipe function mapped over the NDRange: its
	// input and output streams, in parameter order, and its datapath.
	Kernel() *typetrans.Kernel
	// Module builds the design variant: Variant at LaneCount lanes.
	Module() (*tir.Module, error)
	// GlobalSize is NGS: the number of work-items in one kernel-instance.
	GlobalSize() int64
	// LaneCount returns the number of parallel kernel lanes (KNL).
	LaneCount() int
	// MakeInputs generates a deterministic workload keyed by logical
	// stream name, each array of length GlobalSize.
	MakeInputs(seed int64) map[string][]int64
	// Golden computes the reference outputs and accumulator values for
	// the given inputs, on the full (unpartitioned) index space.
	Golden(in map[string][]int64) (out map[string][]int64, acc map[string]int64)
}

// Variant returns s's design variant with the given number of lanes:
// the baseline map of s's kernel over the NDRange, reshaped into lanes
// contiguous slabs under a par map (mappar (mappipe f), §II, Fig 14).
// The lane count must divide the NDRange; one lane is the baseline
// single pipeline (Fig 12).
func Variant(s Spec, lanes int) (*tir.Module, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return lower(s.Kernel(), s.GlobalSize(), lanes)
}

// lower lowers kernel k mapped over n work-items at the given lane
// count through typetrans.
func lower(k *typetrans.Kernel, n int64, lanes int) (*tir.Module, error) {
	p, err := typetrans.Baseline(k, n)
	if err == nil {
		p, err = p.Reshape(int64(lanes), tir.ModePar)
	}
	if err != nil {
		return nil, fmt.Errorf("kernels: %s at %d lanes: %w", k.Name, lanes, err)
	}
	return p.Lower()
}

// streams declares one stream of element type ty per name.
func streams(ty tir.Type, names ...string) []typetrans.StreamSig {
	out := make([]typetrans.StreamSig, len(names))
	for i, name := range names {
		out[i] = typetrans.StreamSig{Name: name, Ty: ty}
	}
	return out
}

// Builtin is a kernel the command-line tools name with -kernel, at the
// two sizes they use. Both are one-lane specs; Variant builds their
// other lane counts.
type Builtin struct {
	// Table2 is the Table II accuracy configuration: what tytracc
	// -kernel prices.
	Table2 Spec
	// Explore is the NDRange tytradse -kernel explores.
	Explore Spec
}

// builtins lists each built-in kernel once. srad has only its Table II
// size, and is explored at it.
var builtins = []Builtin{
	{Table2: DefaultSOR(), Explore: Fig15SOR()},
	{Table2: DefaultHotspot(), Explore: DefaultHotspot()},
	{Table2: DefaultLavaMD(), Explore: LavaMDSpec{Pairs: 720720, Lanes: 1}},
	{Table2: DefaultSRAD(), Explore: DefaultSRAD()},
}

// Names lists the built-in kernels in table order.
func Names() []string {
	out := make([]string, len(builtins))
	for i, b := range builtins {
		out[i] = b.Table2.Name()
	}
	return out
}

// Lookup returns the built-in kernel called name; the error for an
// unknown name lists the valid ones.
func Lookup(name string) (Builtin, error) {
	for _, b := range builtins {
		if b.Table2.Name() == name {
			return b, nil
		}
	}
	return Builtin{}, fmt.Errorf("unknown kernel %q (want %s)", name, strings.Join(Names(), " | "))
}

// LCG is the deterministic linear congruential generator every
// workload in the repo draws from: the same seed always produces the
// same streams, so golden values, simulation results and benchmarks
// are reproducible. It is exported so other workload producers (the
// DSE simulation evaluator's dse.SimInputs) share this one generator
// instead of copying its constants.
type LCG struct{ state uint64 }

// NewLCG seeds a generator.
func NewLCG(seed int64) *LCG {
	return &LCG{state: uint64(seed)*6364136223846793005 + 1442695040888963407}
}

// Next returns the next raw 48-bit draw.
func (r *LCG) Next() uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return r.state >> 16
}

// uniform returns a value in [0, n).
func (r *LCG) uniform(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.Next() % uint64(n))
}

// fill populates a slice with uniform values in [0, n).
func (r *LCG) fill(dst []int64, n int64) {
	for i := range dst {
		dst[i] = r.uniform(n)
	}
}

// Scatter partitions a full stream into contiguous per-lane chunks, the
// order- and size-preserving split of reshapeTo (§II, Fig 3). The length
// must divide evenly.
func Scatter(full []int64, lanes int) ([][]int64, error) {
	if lanes <= 0 {
		return nil, fmt.Errorf("kernels: lanes must be positive, got %d", lanes)
	}
	if len(full)%lanes != 0 {
		return nil, fmt.Errorf("kernels: stream of %d elements does not divide into %d lanes", len(full), lanes)
	}
	chunk := len(full) / lanes
	out := make([][]int64, lanes)
	for l := 0; l < lanes; l++ {
		out[l] = full[l*chunk : (l+1)*chunk]
	}
	return out, nil
}

// Gather reassembles per-lane chunks into the full stream.
func Gather(parts [][]int64) []int64 {
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]int64, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// MemName returns the memory-object name that a lane's port binds to,
// following the builder's naming convention. Single-lane designs use
// lane -1 (no suffix).
func MemName(port string, lane int) string {
	if lane < 0 {
		return "mem_main_" + port
	}
	return fmt.Sprintf("mem_main_%s%d", port, lane)
}

// BindInputs scatters full input streams into the per-memory-object view
// the pipeline simulator consumes.
func BindInputs(full map[string][]int64, lanes int) (map[string][]int64, error) {
	out := map[string][]int64{}
	for name, data := range full {
		if lanes <= 1 {
			out[MemName(name, -1)] = data
			continue
		}
		parts, err := Scatter(data, lanes)
		if err != nil {
			return nil, fmt.Errorf("kernels: stream %s: %w", name, err)
		}
		for l, p := range parts {
			out[MemName(name, l)] = p
		}
	}
	return out, nil
}

// CollectOutput gathers a logical output stream back out of the
// per-memory-object view.
func CollectOutput(mem map[string][]int64, name string, lanes int) ([]int64, error) {
	if lanes <= 1 {
		d, ok := mem[MemName(name, -1)]
		if !ok {
			return nil, fmt.Errorf("kernels: output %s missing", name)
		}
		return d, nil
	}
	parts := make([][]int64, lanes)
	for l := 0; l < lanes; l++ {
		d, ok := mem[MemName(name, l)]
		if !ok {
			return nil, fmt.Errorf("kernels: output %s lane %d missing", name, l)
		}
		parts[l] = d
	}
	return Gather(parts), nil
}
