package kernels

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tir"
)

var update = flag.Bool("update", false, "rewrite golden IR files")

// TestGoldenIR pins the exact TyTra-IR each kernel lowers to: any
// unintended change to the builder, the kernel formulations or the
// printer shows up as a golden diff. Regenerate intentionally with
//
//	go test ./internal/kernels -run TestGoldenIR -update
func TestGoldenIR(t *testing.T) {
	specs := map[string]Spec{
		"sor_1lane.tirl":     SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 1},
		"sor_4lane.tirl":     SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 4},
		"hotspot_1lane.tirl": HotspotSpec{Rows: 24, Cols: 31, Lanes: 1},
		"lavamd_1lane.tirl":  LavaMDSpec{Pairs: 64, Lanes: 1},
		"srad_1lane.tirl":    SRADSpec{Rows: 24, Cols: 19, Lanes: 1},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			m, err := spec.Module()
			if err != nil {
				t.Fatal(err)
			}
			got := m.String()

			// The module must elaborate, and the printed IR must
			// re-parse to an identical module that elaborates too,
			// regardless of the golden comparison.
			elaborate(t, m)
			m2, err := tir.Parse(m.Name, got)
			if err != nil {
				t.Fatalf("printed IR does not re-parse: %v", err)
			}
			if m2.String() != got {
				t.Fatal("printed IR is not a print/parse fixed point")
			}
			elaborate(t, m2)

			path := filepath.Join("testdata", name)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if string(want) != got {
				t.Errorf("golden IR drift for %s; run with -update if intentional", name)
			}
		})
	}
}
