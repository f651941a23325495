package kernels

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tir"
)

// TestLaneVariantsGolden pins every lane variant the repository builds
// by the SHA-256 of its printed IR, in testdata/variants.sha256: each
// kernel at its Table II size and at the size tytradse explores, at
// every lane count in 1..16 that divides the NDRange. TestGoldenIR
// keeps the full text of a few of them; this covers the families. A
// change to the lane wiring, a kernel body or the printer moves a hash.
// Regenerate intentionally with
//
//	go test ./internal/kernels -run TestLaneVariantsGolden -update
func TestLaneVariantsGolden(t *testing.T) {
	families := []struct {
		name  string
		ngs   int64
		build func(lanes int) (*tir.Module, error)
	}{
		{"sor-15x10x16", 15 * 10 * 16, func(l int) (*tir.Module, error) {
			return SORSpec{IM: 15, JM: 10, KM: 16, Lanes: l}.Module()
		}},
		{"sor-15x10x96096", 15 * 10 * 96096, func(l int) (*tir.Module, error) {
			return SORSpec{IM: 15, JM: 10, KM: 96096, Lanes: l}.Module()
		}},
		// 384×682 is both hotspot's Table II size and the size tytradse
		// explores.
		{"hotspot-384x682", 384 * 682, func(l int) (*tir.Module, error) {
			return HotspotSpec{Rows: 384, Cols: 682, Lanes: l}.Module()
		}},
		{"lavamd-96", 96, func(l int) (*tir.Module, error) {
			return LavaMDSpec{Pairs: 96, Lanes: l}.Module()
		}},
		{"lavamd-720720", 720720, func(l int) (*tir.Module, error) {
			return LavaMDSpec{Pairs: 720720, Lanes: l}.Module()
		}},
		{"srad-128x229", 128 * 229, func(l int) (*tir.Module, error) {
			return SRADSpec{Rows: 128, Cols: 229, Lanes: l}.Module()
		}},
		{"sor-f32-96x96x96", 96 * 96 * 96, func(l int) (*tir.Module, error) {
			return SORF32Spec{IM: 96, JM: 96, KM: 96, Lanes: l}.Module()
		}},
	}
	var got []byte
	for _, f := range families {
		for lanes := 1; lanes <= 16; lanes++ {
			if f.ngs%int64(lanes) != 0 {
				continue
			}
			m, err := f.build(lanes)
			if err != nil {
				t.Fatalf("%s at %d lanes: %v", f.name, lanes, err)
			}
			got = fmt.Appendf(got, "%x  %s-%d\n", sha256.Sum256([]byte(m.String())), f.name, lanes)
		}
	}
	path := filepath.Join("testdata", "variants.sha256")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(got) != string(want) {
		t.Errorf("lane variants drifted from %s; run with -update if intentional\n--- want\n%s\n--- got\n%s", path, want, got)
	}
}
