package memsim

import "slices"

// Test-only access for the external memsim_test package, which drives
// the bandwidth benchmark of package membw.

// WalkedAccesses returns the number of accesses walk has stepped
// through one at a time in this process, plus one per run it added by
// addRepeated or addRows and one per bank it set after a run.
func WalkedAccesses() int64 { return walked.Load() }

// OpenRows returns a copy of d's row buffers.
func (d *DRAM) OpenRows() []int64 { return slices.Clone(d.openRow) }

// ColumnWalkPerPass is the reference for ColumnWalkSeconds.
var ColumnWalkPerPass = columnWalkPerPass
