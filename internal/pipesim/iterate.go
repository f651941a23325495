package pipesim

import (
	"fmt"

	"repro/internal/tir"
)

// Feedback connects an output stream back to an input stream between
// kernel-instance iterations: the form-B solver pattern (Fig 6), where
// the NDRange stays in device DRAM and each instance consumes its
// predecessor's result (the SOR pressure field feeding the next sweep).
// Keys and values are memory-object names.
type Feedback map[string]string

// IterationResult is the outcome of a multi-instance run.
type IterationResult struct {
	// Final holds the memory state after the last instance.
	Final map[string][]int64
	// Acc holds the accumulator values of the LAST instance (hardware
	// accumulators reset between instances; per-instance values are in
	// AccHistory).
	Acc map[string]int64
	// AccHistory records every instance's accumulators in order.
	AccHistory []map[string]int64
	// TotalCycles sums the per-instance CPKI over all iterations.
	TotalCycles int64
	// Instances is the number of kernel-instances executed.
	Instances int64
}

// runIterations is the executor-agnostic feedback loop, shared by the
// compiled executor and the tests' oracle replay so the iteration
// semantics cannot drift between them.
func runIterations(m *tir.Module, run func(map[string][]int64) (*Result, error),
	mem map[string][]int64, nki int64, fb Feedback) (*IterationResult, error) {
	if nki <= 0 {
		return nil, fmt.Errorf("pipesim: iteration count must be positive, got %d", nki)
	}
	// Validate the feedback wiring up front.
	for out, in := range fb {
		mo := m.MemObject(out)
		mi := m.MemObject(in)
		if mo == nil {
			return nil, fmt.Errorf("pipesim: feedback source %q is not a memory object", out)
		}
		if mi == nil {
			return nil, fmt.Errorf("pipesim: feedback target %q is not a memory object", in)
		}
		if mo.Size != mi.Size || mo.Elem != mi.Elem {
			return nil, fmt.Errorf("pipesim: feedback %q -> %q shape mismatch (%d x %s vs %d x %s)",
				out, in, mo.Size, mo.Elem, mi.Size, mi.Elem)
		}
	}

	cur := mem
	res := &IterationResult{}
	for k := int64(0); k < nki; k++ {
		r, err := run(cur)
		if err != nil {
			return nil, fmt.Errorf("pipesim: instance %d: %w", k, err)
		}
		res.TotalCycles += r.Cycles
		res.Instances++
		res.Acc = r.Acc
		res.AccHistory = append(res.AccHistory, r.Acc)
		res.Final = r.Mem

		if k == nki-1 {
			break
		}
		// Rewire: next instance's inputs from this instance's outputs.
		next := map[string][]int64{}
		for name, data := range cur {
			next[name] = data
		}
		for out, in := range fb {
			produced, ok := r.Mem[out]
			if !ok {
				return nil, fmt.Errorf("pipesim: feedback source %q not produced by instance %d", out, k)
			}
			next[in] = produced
			// The output object is regenerated next instance; drop it so
			// Run does not see it as already written.
			delete(next, out)
		}
		cur = next
	}
	return res, nil
}
