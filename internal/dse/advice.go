package dse

import (
	"fmt"
	"strings"
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
		a.Actions = []string{
			"no variant fits: reduce per-lane logic (narrower datapath, share dividers) or target a larger device",
		}
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
