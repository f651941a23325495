package memsim

import "slices"

// Test-only access for the external memsim_test package, which drives
// the bandwidth benchmark of package membw.

// WalkedAccesses returns the number of accesses walk has simulated in
// this process.
func WalkedAccesses() int64 { return walked.Load() }

// OpenRows returns a copy of d's row buffers.
func (d *DRAM) OpenRows() []int64 { return slices.Clone(d.openRow) }

// ColumnWalkPerPass is the reference for ColumnWalkSeconds.
var ColumnWalkPerPass = columnWalkPerPass
