package pipesim

import (
	"flag"

	"repro/internal/tir"
)

// The -pipesim.oracle flag replays the entire pipesim test suite
// through the retained wave-by-wave interpreter instead of the
// compiled executor:
//
//	go test ./internal/pipesim -pipesim.oracle
//
// Every golden-kernel, coarse-pipeline and iteration test then pins the
// oracle, the golden-kernel tests its cycles and items too
// (specTiming), while the default run pins the compiled path; the
// differential tests in fuzz_test.go pin the two against each other.
//
// -pipesim.scalar replays the suite on the compiled executor's scalar
// fallback (batching off), so both executors are pinned by the full
// suite, not just by the dedicated differential tests:
//
//	go test -race ./internal/pipesim -pipesim.scalar
//
// The tests read the two switches through run, iterate and testConfig;
// the package itself has no switch.
var (
	oracle     bool
	testConfig Config
)

func init() {
	flag.BoolVar(&oracle, "pipesim.oracle", false,
		"route the tests' runs through the retained interpreter (oracle) instead of the compiled executor")
	flag.BoolVar(&testConfig.DisableBatch, "pipesim.scalar", false,
		"compile the tests' designs without the batched executor (scalar per-item loop only)")
}

// run executes the module on mem the way the flags select: through the
// oracle, or compiled under testConfig.
func run(m *tir.Module, mem map[string][]int64) (*Result, error) {
	if oracle {
		return RunOracle(m, mem)
	}
	d, err := CompileConfig(m, testConfig)
	if err != nil {
		return nil, err
	}
	return d.Run(mem)
}

// iterate executes nki kernel-instances of the module with the given
// feedback wiring, through the executor run selects.
func iterate(m *tir.Module, mem map[string][]int64, nki int64, fb Feedback) (*IterationResult, error) {
	if oracle {
		return runIterations(m, func(cur map[string][]int64) (*Result, error) {
			return RunOracle(m, cur)
		}, mem, nki, fb)
	}
	d, err := CompileConfig(m, testConfig)
	if err != nil {
		return nil, err
	}
	return d.RunIterations(mem, nki, fb)
}
