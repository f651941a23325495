package pipesim

import (
	"fmt"

	"repro/internal/tir"
)

// Oracle, when true, routes Run and RunIterations through the retained
// wave-by-wave interpreter instead of the compiled executor. It exists
// for differential testing: `go test ./internal/pipesim -pipesim.oracle`
// replays the whole pipesim test suite on the oracle (the flag is
// registered in oracle_test.go, so no build tags and no flag pollution
// in shipped binaries).
var Oracle bool

// Config selects the executor escalation level a design compiles with.
// The zero value is the full escalation (fusion + batching), which is
// what Run, RunIterations and Compile use; the Disable knobs
// exist for differential testing and benchmarking of the fallback paths
// (-pipesim.scalar and -pipesim.nofuse replay the whole suite on them).
// Every level is bit-identical by construction — the knobs trade speed,
// never semantics.
type Config struct {
	// DisableBatch keeps every program on the scalar per-item loop.
	DisableBatch bool
	// DisableFuse skips the superinstruction peephole pass (fuse.go).
	DisableFuse bool
}

// defaultConfig is the package-wide compile configuration, flipped only
// by the test flags registered in oracle_test.go.
var defaultConfig Config

// ExecLevelNames lists the executor escalation levels ParseExecLevel
// accepts, fastest first — the spelling CLI flags should advertise.
func ExecLevelNames() []string { return []string{"batched", "nofuse", "scalar"} }

// ParseExecLevel resolves a named executor escalation level (a CLI
// -simexec value) to its compile configuration: "batched" (the default
// full escalation), "nofuse" (batched, fusion off), "scalar" (the plain
// per-item compiled loop, fusion off). All levels produce bit-identical
// results; the name only picks how fast the simulator gets them.
func ParseExecLevel(s string) (Config, error) {
	switch s {
	case "", "batched":
		return Config{}, nil
	case "nofuse":
		return Config{DisableFuse: true}, nil
	case "scalar":
		return Config{DisableBatch: true, DisableFuse: true}, nil
	}
	return Config{}, fmt.Errorf("pipesim: unknown executor level %q (have: %v)", s, ExecLevelNames())
}

// Run executes the design variant on the given memory-object contents.
// mem must provide an array of exactly the declared size for every
// memory object that feeds an input stream not produced by another
// processing element. Caller arrays are never written (see
// Instance.Run); results come back in Result.Mem.
//
// Run compiles the module through a small bounded design cache
// (cachedDesign), so a loop that calls Run on the same module pays
// compilation once, not per call — the result is bit-identical to the
// retained interpreter (RunOracle) either way. Callers that own the
// module's lifetime should hold a CompiledDesign (Compile) directly.
func Run(m *tir.Module, mem map[string][]int64) (*Result, error) {
	if Oracle {
		return RunOracle(m, mem)
	}
	d, err := cachedDesign(m, defaultConfig)
	if err != nil {
		return nil, err
	}
	return d.Run(mem)
}
