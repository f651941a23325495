package kernels

import (
	"testing"

	"repro/internal/elab"
	"repro/internal/pipesim"
	"repro/internal/tir"
)

// elaborate elaborates m, failing the test when elaboration rejects it.
func elaborate(tb testing.TB, m *tir.Module) *elab.Design {
	tb.Helper()
	d, err := elab.Elaborate(m)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// simulate compiles m and runs one kernel-instance on mem, failing the
// test when either step fails.
func simulate(tb testing.TB, m *tir.Module, mem map[string][]int64) *pipesim.Result {
	tb.Helper()
	d, err := pipesim.Compile(elaborate(tb, m))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := d.Run(mem)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}
