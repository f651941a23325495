package pipesim

import "repro/internal/tir"

// Oracle, when true, routes Run and RunIterations through the retained
// wave-by-wave interpreter instead of the compiled executor. It exists
// for differential testing: `go test ./internal/pipesim -pipesim.oracle`
// replays the whole pipesim test suite on the oracle (the flag is
// registered in oracle_test.go, so no build tags and no flag pollution
// in shipped binaries).
var Oracle bool

// Config selects the executor a design compiles with. The zero value
// batches every program the compiler proves batch-safe, which is what
// Run, RunIterations and Compile use; DisableBatch exists for
// differential testing and benchmarking of the scalar fallback
// (-pipesim.scalar replays the whole suite on it). Both executors are
// bit-identical by construction — the knob trades speed, never
// semantics.
type Config struct {
	// DisableBatch keeps every program on the scalar per-item loop.
	DisableBatch bool
}

// defaultConfig is the package-wide compile configuration, flipped only
// by the test flags registered in oracle_test.go.
var defaultConfig Config

// Run executes the design variant on the given memory-object contents.
// mem must provide an array of exactly the declared size for every
// memory object that feeds an input stream not produced by another
// processing element. Caller arrays are never written (see
// Instance.Run); results come back in Result.Mem.
//
// Run compiles the module on every call; the result is bit-identical
// to the retained interpreter (RunOracle). A caller that runs one
// module more than once should Compile it and hold the CompiledDesign.
func Run(m *tir.Module, mem map[string][]int64) (*Result, error) {
	if Oracle {
		return RunOracle(m, mem)
	}
	d, err := CompileConfig(m, defaultConfig)
	if err != nil {
		return nil, err
	}
	return d.Run(mem)
}
