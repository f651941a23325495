package repro

import (
	"testing"

	"repro/internal/elab"
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
