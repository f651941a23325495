package costmodel

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/tir"
)

// compileCorpus is the kernel corpus the compiled-vs-oracle
// differential sweeps: the three scientific kernels at several lane
// counts, the float SOR variant (exercising the fixed-format float op
// costs), and srad, whose clamps are the corpus's compares and
// selects.
func compileCorpus(t testing.TB) map[string]*tir.Module {
	t.Helper()
	specs := map[string]interface {
		Module() (*tir.Module, error)
	}{
		"sor-l1":     kernels.DefaultSOR(),
		"sor-l4":     kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 4},
		"sor-l16":    kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 16},
		"hotspot-l1": kernels.DefaultHotspot(),
		"hotspot-l8": kernels.HotspotSpec{Rows: 384, Cols: 682, Lanes: 8},
		"lavamd-l1":  kernels.DefaultLavaMD(),
		"lavamd-l2":  kernels.LavaMDSpec{Pairs: 96, Lanes: 2},
		"sorf32-l1":  kernels.DefaultSORF32(),
		"srad-l1":    kernels.DefaultSRAD(),
		"srad-l8":    kernels.SRADSpec{Rows: 24, Cols: 19, Lanes: 8},
	}
	mods := make(map[string]*tir.Module, len(specs))
	for name, spec := range specs {
		m, err := spec.Module()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mods[name] = m
	}
	return mods
}

// TestCompiledMatchesOracle pins the flat estimate program bit-identical
// to the tree-walk oracle: corpus × dv × devices, compared field by
// field with DeepEqual. Each module is also lowered once and that one
// Lowered is bound to the three targets from 8 goroutines (run with
// -race), as the DSE evaluators share it; every bound program must
// match both the per-target Compile and the oracle.
func TestCompiledMatchesOracle(t *testing.T) {
	targets := []*device.Target{device.StratixVGSD8(), device.Virtex7690T(), device.GSD8Edu()}
	dvs := []int{1, 2, 3, 4, 5, 8, 13, 25}
	mods := compileCorpus(t)
	mdls := make([]*Model, len(targets))
	for i, tgt := range targets {
		mdl, err := Calibrate(tgt)
		if err != nil {
			t.Fatal(err)
		}
		mdls[i] = mdl
	}
	for name, m := range mods {
		low, err := Lower(elaborate(t, m))
		if err != nil {
			t.Fatalf("%s: Lower: %v", name, err)
		}
		bound := make([]*CompiledModel, 8)
		var wg sync.WaitGroup
		for g := range bound {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				bound[g] = mdls[g%len(mdls)].Bind(low)
			}(g)
		}
		wg.Wait()
		for g, shared := range bound {
			mdl := mdls[g%len(mdls)]
			tgt := mdl.Target
			cm, err := mdl.Compile(m)
			if err != nil {
				t.Fatalf("%s on %s: Compile: %v", name, tgt.Name, err)
			}
			for _, dv := range dvs {
				want, err := mdl.EstimateOracle(elaborate(t, m), dv)
				if err != nil {
					t.Fatalf("%s on %s dv=%d: oracle: %v", name, tgt.Name, dv, err)
				}
				for _, c := range []struct {
					arm string
					cm  *CompiledModel
				}{{"compiled", cm}, {fmt.Sprintf("shared lowering (goroutine %d)", g), shared}} {
					got, err := c.cm.EstimateVectorised(dv)
					if err != nil {
						t.Fatalf("%s on %s dv=%d: %s: %v", name, tgt.Name, dv, c.arm, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s on %s dv=%d: %s estimate diverges from oracle:\n got %+v\nwant %+v",
							name, tgt.Name, dv, c.arm, got, want)
					}
				}
			}
		}
	}
}

// TestCompiledRejectsInvalidDV mirrors the oracle's dv validation.
func TestCompiledRejectsInvalidDV(t *testing.T) {
	mdl, err := Calibrate(device.StratixVGSD8())
	if err != nil {
		t.Fatal(err)
	}
	m, err := kernels.DefaultSOR().Module()
	if err != nil {
		t.Fatal(err)
	}
	cm, err := mdl.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cm.EstimateVectorised(0); err == nil {
		t.Error("dv=0 accepted")
	}
}

// TestCompileRejectsInvalidModule mirrors the oracle's validation.
func TestCompileRejectsInvalidModule(t *testing.T) {
	mdl, err := Calibrate(device.StratixVGSD8())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mdl.Compile(&tir.Module{Name: "empty"}); err == nil {
		t.Error("empty module accepted")
	}
}

// TestCompiledEstimateAllocs caps the steady-state allocation cost of
// the compiled path: one Estimate per call, nothing else (the issue's
// <=2 allocs/variant acceptance bound).
func TestCompiledEstimateAllocs(t *testing.T) {
	mdl, err := Calibrate(device.StratixVGSD8())
	if err != nil {
		t.Fatal(err)
	}
	m, err := kernels.DefaultSOR().Module()
	if err != nil {
		t.Fatal(err)
	}
	cm, err := mdl.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	dv := 0
	allocs := testing.AllocsPerRun(200, func() {
		dv = dv%8 + 1
		if _, err := cm.EstimateVectorised(dv); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("compiled EstimateVectorised allocates %.1f objects/variant, want <= 2", allocs)
	}
}

// BenchmarkCompiledEstimate prices the compiled path against the
// tree-walk oracle on the three kernel families tytradse explores. The
// warm sub-benchmark is the per-variant steady state the DSE engine
// pays; cold includes the one-time Compile. The tree/compiled-warm
// ratio and the warm allocs/op are the margins the opt-in
// TestDSEModelBenchSmoke gate holds (>=5x, <=2 allocs per variant).
func BenchmarkCompiledEstimate(b *testing.B) {
	mdl, err := Calibrate(device.StratixVGSD8())
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range []kernels.Spec{kernels.DefaultSOR(), kernels.DefaultHotspot(), kernels.DefaultLavaMD()} {
		m, err := spec.Module()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec.Name()+"/tree", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mdl.EstimateOracle(elaborate(b, m), i%8+1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(spec.Name()+"/compiled-cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cm, err := mdl.Compile(m)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cm.EstimateVectorised(i%8 + 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(spec.Name()+"/compiled-warm", func(b *testing.B) {
			cm, err := mdl.Compile(m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cm.EstimateVectorised(i%8 + 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
