package membw

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/device"
)

// streamBenchmarkGolden is the SHA-256 that TestStreamBenchmarkGolden
// computes, recorded from the per-access, sequential benchmark. A new
// value means every Table I ρG, estimate and stored model record moved,
// which needs an evalstore version bump.
const streamBenchmarkGolden = "bbe2c5c87faec48e54e70c37ab1d3ca253e1c9f7bb562aa0b27e85efe8fca062"

// appendSampleBits appends every field of every sample to b, floats as
// their IEEE bits, in table order.
func appendSampleBits(b []byte, samples []Sample) []byte {
	for _, s := range samples {
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Dim))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Pattern))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Bytes))
		for _, f := range []float64{s.Seconds, s.Sustained, s.SteadySeconds, s.SteadySustained} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	return b
}

// TestStreamBenchmarkGolden pins the bandwidth benchmark bit for bit:
// the samples of RunStreamBenchmark and the SaveTable text of Build,
// for every registered target, hashed against a committed constant.
// It also checks that the samples do not depend on GOMAXPROCS.
func TestStreamBenchmarkGolden(t *testing.T) {
	h := sha256.New()
	for _, name := range device.Names() {
		tgt, err := device.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		var first []Sample
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			samples, err := RunStreamBenchmark(tgt)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s, GOMAXPROCS %d: %v", name, procs, err)
			}
			if first == nil {
				first = samples
				continue
			}
			if !reflect.DeepEqual(samples, first) {
				t.Errorf("%s: samples under GOMAXPROCS %d differ from GOMAXPROCS 1", name, procs)
			}
		}
		h.Write(appendSampleBits(nil, first))
		m, err := Build(tgt)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SaveTable(h); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != streamBenchmarkGolden {
		t.Errorf("stream benchmark digest %s, want %s", got, streamBenchmarkGolden)
	}
}
