package pipesim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tir"
)

// fuzzSeeds returns FuzzCompile's seed corpus: the tir surface corpus
// (good and bad) plus cheap structural mutations of each file, and
// random kernels, some replicated over par lanes that share one
// compiled body.
func fuzzSeeds(tb testing.TB) []string {
	var seeds []string
	g := &kernelGen{par: true}
	for seed := uint64(1); seed <= 8; seed++ {
		m, _, _ := g.build(seed)
		seeds = append(seeds, m.String())
	}
	for _, pattern := range []string{
		filepath.Join("..", "tir", "testdata", "*.tirl"),
		filepath.Join("..", "tir", "testdata", "bad", "*.tirl"),
	} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			tb.Fatal(err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				tb.Fatal(err)
			}
			s := string(src)
			seeds = append(seeds, s, s[:len(s)/2],
				strings.Replace(s, "!0", "!2", 1),
				strings.Replace(s, "ui18", "f32", 1))
		}
	}
	return seeds
}

// FuzzCompile asserts the contract tytravet advertises: any input the
// parser accepts either compiles or comes back as a diagnostic error —
// Compile never panics. A design that compiles must also agree with
// itself: Timing fails exactly when Run on host inputs fails, and
// otherwise reports Run's cycles and items. Designs whose memory
// objects total more than 1<<20 elements are not run (a mutated size
// must not run the fuzzer out of memory); for them Timing need only
// return.
func FuzzCompile(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := tir.Parse("fuzz.tirl", src)
		if err != nil {
			return
		}
		d, err := CompileConfig(m, testConfig)
		if err != nil {
			// Rejected with a diagnostic: the acceptable failure mode.
			return
		}
		mem, ok := hostMem(m, 1<<20)
		if !ok {
			d.Timing()
			return
		}
		res, err := d.Run(mem)
		requireTimingMatchesRun(t, "fuzz", d, res, err)
	})
}
