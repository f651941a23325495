package dse

import "repro/internal/perf"

// Sweep2D explores the two horizontal axes of the Fig 5 design space
// together: thread parallelism (lanes, the C1/C2 region) and
// medium-grained vectorisation per lane (DV, the C3 region). The
// interesting trade-off the cost model exposes: a vectorised lane
// shares its stream controllers and offset windows across ways, so at
// equal work-items/cycle a (lanes, DV) point can cost less logic than
// (lanes·DV, 1) — but it demands the same bandwidth, so it hits the
// communication walls at the same throughput.
type Sweep2D struct {
	Form perf.Form
	// Points[i][j] is the variant with Lanes[i] lanes at DVs[j] ways.
	Lanes  []int
	DVs    []int
	Points [][]Point
	// Best is the highest-EKIT fitting point, or nil.
	Best *Point
}
