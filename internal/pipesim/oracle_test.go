package pipesim

import "flag"

// The -pipesim.oracle flag replays the entire pipesim test suite
// through the retained wave-by-wave interpreter instead of the
// compiled executor:
//
//	go test ./internal/pipesim -pipesim.oracle
//
// Every golden-kernel, coarse-pipeline and iteration test then pins the
// oracle, while the default run pins the compiled path; the
// differential tests in fuzz_test.go pin the two against each other.
//
// -pipesim.scalar replays the suite on the compiled executor's scalar
// fallback (batching off), so both executors are pinned by the full
// suite, not just by the dedicated differential tests:
//
//	go test -race ./internal/pipesim -pipesim.scalar
func init() {
	flag.BoolVar(&Oracle, "pipesim.oracle", false,
		"route pipesim.Run through the retained interpreter (oracle) instead of the compiled executor")
	flag.BoolVar(&defaultConfig.DisableBatch, "pipesim.scalar", false,
		"compile without the batched executor (scalar per-item loop only)")
}
