package dse

import (
	"fmt"
	"strings"

	"repro/internal/perf"
)

// Advice is the targeted-tuning feedback the cost model enables: the
// paper's point that exposing the performance-limiting parameter "opens
// the route to a feedback path in our compiler flow with automated,
// targeted tuning of designs" (§I). Given a completed sweep, Advise
// names the binding wall of the best variant and the transformation
// most likely to move it.
type Advice struct {
	// BestLanes is the selected variant (0 when nothing fits).
	BestLanes int
	// Wall is the constraint binding further scaling: "compute-wall",
	// "host-bandwidth-wall", "dram-bandwidth-wall" or "none".
	Wall string
	// Actions are the suggested next transformations, most promising
	// first.
	Actions []string
}

// Advise analyses a sweep and produces the feedback-path recommendation.
func Advise(sw *Sweep) Advice {
	a := Advice{}
	if sw.Best == nil {
		a.Wall = "compute-wall"
		a.Actions = []string{noFitAction(sw)}
		return a
	}
	a.BestLanes = sw.Best.Lanes

	// Bandwidth limits take precedence: when the best point is already
	// bandwidth-bound, freeing logic cannot improve it.
	switch {
	case sw.Best.Breakdown.Limiter == "host-bandwidth":
		a.Wall = "host-bandwidth-wall"
		a.Actions = []string{
			"move from form A to form B: keep the NDRange resident in device DRAM across kernel-instances",
			"pack stream elements (narrower types) to cut words-per-tuple over the link",
			"overlap transfer with compute (double-buffered kernel-instances)",
		}
	case sw.Best.Breakdown.Limiter == "dram-bandwidth":
		a.Wall = "dram-bandwidth-wall"
		a.Actions = []string{
			"tile the index space toward form C: stage slabs in on-chip block RAM",
			"make strided streams contiguous (transpose once, stream many times)",
			"fuse kernels sharing streams into a coarse-grained pipeline to reuse each word",
		}
	case sw.ComputeWall != 0 && sw.Best.Lanes == sw.ComputeWall-1:
		a.Wall = "compute-wall"
		_, res := sw.Best.Est.Used.MaxUtilisation(sw.Best.Est.Target.Capacity)
		a.Actions = []string{
			fmt.Sprintf("rebalance resources: the design exhausts %s while others are underutilised (DSP %.0f%%, BRAM %.0f%%)",
				res, sw.Best.UtilDSP*100, sw.Best.UtilBRAM*100),
			"strength-reduce wide operators (constant multiplies, shift-add) to free the binding resource",
			"consider vectorisation (DV>1) instead of more lanes: shares stream controllers across work-items",
		}
	default:
		a.Wall = "none"
		a.Actions = []string{
			fmt.Sprintf("compute-bound with headroom: replicate beyond %d lanes", sw.Best.Lanes),
		}
	}
	return a
}

// noFitAction is the advice for a sweep in which no evaluated variant
// fits. A search that skipped the smallest lane count has not shown that
// nothing fits, so it is told to search further. Otherwise the advice
// targets the resource the smallest variant overflows most: block RAM
// holds the on-chip working set, which tiling (or, from form C,
// streaming from DRAM in form B) shrinks; logic is per-lane datapath.
func noFitAction(sw *Sweep) string {
	if sw.unsearched() {
		return sw.NoFit() + ": raise -budget or use -strategy exhaustive"
	}
	if len(sw.Points) > 0 {
		p := sw.Points[0]
		if p.UtilBRAM > p.UtilALUT && p.UtilBRAM > p.UtilReg && p.UtilBRAM > p.UtilDSP {
			act := fmt.Sprintf("no variant fits: block RAM binds (the smallest variant needs %.0f%% of it): ", p.UtilBRAM*100)
			if sw.Form == perf.FormC {
				act += "stream the NDRange from device DRAM in form B, or "
			}
			return act + "tile the index space so each slab's on-chip buffers fit"
		}
	}
	return "no variant fits: reduce per-lane logic (narrower datapath, share dividers) or target a larger device"
}

// NoFit is the line reporting a sweep in which no evaluated variant
// fits the device. Resource use grows with lanes, so a sweep whose
// smallest lane count was evaluated has shown that no variant fits; one
// that skipped it (a budgeted or adaptive search) says how much it
// evaluated instead.
func (sw *Sweep) NoFit() string {
	if sw.unsearched() {
		return fmt.Sprintf("no evaluated variant fits (%d of %d lane counts evaluated)", len(sw.Points), len(sw.Lanes))
	}
	return "no variant fits the device"
}

// ShelfNoFit is NoFit for a shelf exploration in which no evaluated
// variant fits any device, given each device's sweep (empty for a
// device the search never reached).
func ShelfNoFit(sweeps []*Sweep) string {
	evaluated, swept, unsearched := 0, 0, false
	for _, sw := range sweeps {
		evaluated += len(sw.Points)
		swept += len(sw.Lanes)
		unsearched = unsearched || sw.unsearched()
	}
	if unsearched {
		return fmt.Sprintf("no evaluated variant fits any device on the shelf (%d of %d variants evaluated): raise -budget or use -strategy exhaustive",
			evaluated, swept)
	}
	return "no variant fits any device on the shelf"
}

// unsearched reports whether the search behind the sweep left its
// smallest lane count unevaluated. A sweep without Lanes counts as
// searched.
func (sw *Sweep) unsearched() bool {
	return len(sw.Lanes) > 0 && (len(sw.Points) == 0 || sw.Points[0].Lanes != sw.Lanes[0])
}

// String renders the advice as the compiler's feedback message.
func (a Advice) String() string {
	var b strings.Builder
	best := "none fits"
	if a.BestLanes > 0 {
		best = fmt.Sprintf("%d lanes", a.BestLanes)
	}
	fmt.Fprintf(&b, "best variant: %s; binding constraint: %s\n", best, a.Wall)
	for i, act := range a.Actions {
		fmt.Fprintf(&b, "  %d. %s\n", i+1, act)
	}
	return b.String()
}
