package memsim_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/membw"
	"repro/internal/memsim"
)

// TestColumnWalkMatchesPerPassOnTargets runs the column walk of every
// default benchmark dimension on every registered target, from
// precharged banks as the benchmark does, against the per-pass
// reference: seconds bit for bit and the row buffers after the call.
func TestColumnWalkMatchesPerPassOnTargets(t *testing.T) {
	for _, name := range device.Names() {
		tgt, err := device.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, dim := range membw.DefaultDims {
			got, err := memsim.NewDRAM(tgt.DRAM)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := memsim.NewDRAM(tgt.DRAM)
			gotSecs, err := got.ColumnWalkSeconds(int64(dim), 4)
			if err != nil {
				t.Fatal(err)
			}
			wantSecs, err := memsim.ColumnWalkPerPass(want, int64(dim), 4)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(gotSecs) != math.Float64bits(wantSecs) {
				t.Errorf("%s dim %d: ColumnWalkSeconds = %v, per-pass reference %v", name, dim, gotSecs, wantSecs)
			}
			if g, w := got.OpenRows(), want.OpenRows(); !slices.Equal(g, w) {
				t.Errorf("%s dim %d: open rows %v, reference %v", name, dim, g, w)
			}
		}
	}
}

// maxWalkedPerTarget bounds the DRAM accesses the default bandwidth
// benchmark simulates per target. Walking every column pass costs 97.0M
// (91.3M strided plus 5.7M contiguous); walking only the passes whose
// rows or starting row buffers change costs ~15.2M.
const maxWalkedPerTarget = 16_000_000

// TestCalibrationWalkCount gates the cost of membw's one-time benchmark
// by the accesses it walks, since CI does not gate wall time: a change
// that falls back to walking every pass keeps every sample and fails
// here.
func TestCalibrationWalkCount(t *testing.T) {
	for _, name := range device.Names() {
		tgt, err := device.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		before := memsim.WalkedAccesses()
		if _, err := membw.RunStreamBenchmark(tgt, nil); err != nil {
			t.Fatal(err)
		}
		n := memsim.WalkedAccesses() - before
		t.Logf("%s: %d accesses walked", name, n)
		if n > maxWalkedPerTarget {
			t.Errorf("%s: the default benchmark walked %d accesses, want <= %d", name, n, maxWalkedPerTarget)
		}
	}
}
