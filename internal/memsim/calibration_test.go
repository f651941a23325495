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
// benchmark steps through one at a time per target, plus one per run
// it adds by addRepeated or addRows and one per bank it sets after a
// run. Walking every column pass one access at a time costs 97.0M
// (91.3M strided plus 5.7M contiguous); walking only the passes whose
// rows or starting row buffers change costs ~15.2M; walking the
// contiguous cells as prefixes of the largest one (2.25M bursts instead
// of 5.7M) costs ~11.75M; skipping the passes that repeat an earlier
// pass moved by whole rows (9.5M strided accesses down to 1.3M) costs
// ~3.56M. Taking each row of a step below a row as one decision and one
// run of hits, and the rest of a pass of a row or more as one run of
// misses once no bank can hit, steps ~249k; taking the whole rows of
// the contiguous prefix walk as one run of rows steps ~109k.
const maxWalkedPerTarget = 125_000

// TestCalibrationWalkCount gates the cost of membw's one-time benchmark
// by the accesses it steps through, since CI does not gate wall time:
// a change that falls back to walking every pass, every contiguous cell
// on its own, every pass that repeats an earlier one moved by whole
// rows, every access of a run or every row of a run of rows keeps every
// sample and fails here.
func TestCalibrationWalkCount(t *testing.T) {
	for _, name := range device.Names() {
		tgt, err := device.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		before := memsim.WalkedAccesses()
		if _, err := membw.RunStreamBenchmark(tgt); err != nil {
			t.Fatal(err)
		}
		n := memsim.WalkedAccesses() - before
		t.Logf("%s: %d accesses stepped", name, n)
		if n > maxWalkedPerTarget {
			t.Errorf("%s: the default benchmark stepped %d accesses, want <= %d", name, n, maxWalkedPerTarget)
		}
	}
}
