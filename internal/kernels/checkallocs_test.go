package kernels

import "testing"

// TestCheckAnalyzeAllocs gates the static checker's allocations on
// Fig 15-shaped sor. Analyze sizes its tables from the module and
// allocates nothing per instruction or per call site, so a 16-lane
// module costs about as many allocations as a 1-lane one. It runs once
// on every variant any back end reads, inside elab.Elaborate.
func TestCheckAnalyzeAllocs(t *testing.T) {
	const maxAnalyze = 30
	for _, lanes := range []int{1, 16} {
		m, err := SORSpec{IM: 15, JM: 10, KM: 96096, Lanes: lanes}.Module()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Analyze().ErrOrNil(); err != nil {
			t.Fatal(err)
		}
		analyze := testing.AllocsPerRun(20, func() { _ = m.Analyze() })
		t.Logf("%2d lanes: Analyze %.0f allocs", lanes, analyze)
		if analyze > maxAnalyze {
			t.Errorf("%d lanes: Analyze makes %.0f allocations, want at most %d", lanes, analyze, maxAnalyze)
		}
	}
}
