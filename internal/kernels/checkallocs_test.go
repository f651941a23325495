package kernels

import "testing"

// TestCheckAnalyzeAllocs gates the static checker's allocations on
// Fig 15-shaped sor. Check and Analyze size their tables from the
// module and allocate nothing per instruction or per call site, so a
// 16-lane module costs about as many allocations as a 1-lane one. Both
// run on every variant a sim-scored DSE point builds: in the builder,
// in costmodel.Lower and in pipesim.Compile.
func TestCheckAnalyzeAllocs(t *testing.T) {
	const maxCheck, maxAnalyze = 24, 30
	for _, lanes := range []int{1, 16} {
		m, err := SORSpec{IM: 15, JM: 10, KM: 96096, Lanes: lanes}.Module()
		if err != nil {
			t.Fatal(err)
		}
		check := testing.AllocsPerRun(20, func() { _ = m.Check() })
		analyze := testing.AllocsPerRun(20, func() { _ = m.Analyze() })
		t.Logf("%2d lanes: Check %.0f allocs, Analyze %.0f allocs", lanes, check, analyze)
		if check > maxCheck {
			t.Errorf("%d lanes: Check makes %.0f allocations, want at most %d", lanes, check, maxCheck)
		}
		if analyze > maxAnalyze {
			t.Errorf("%d lanes: Analyze makes %.0f allocations, want at most %d", lanes, analyze, maxAnalyze)
		}
	}
}
