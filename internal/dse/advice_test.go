package dse

import (
	"strings"
	"testing"

	"repro/internal/perf"
)

func TestAdviseComputeWall(t *testing.T) {
	// The Fig 15 form-B sweep: the best variant sits just under the
	// compute wall and is compute-limited, so the feedback suggests
	// resource balancing (the paper's §VI-A observation).
	a := Advise(sweep(t, perf.FormB))
	if a.Wall != "compute-wall" {
		t.Errorf("wall = %s, want compute-wall (best=%d)", a.Wall, a.BestLanes)
	}
	joined := strings.Join(a.Actions, "\n")
	if !strings.Contains(joined, "rebalance") {
		t.Errorf("compute-wall advice should suggest resource balancing, got:\n%s", joined)
	}
	if !strings.Contains(a.String(), "binding constraint") {
		t.Error("String() missing summary line")
	}
}

func TestAdviseHostWallFormA(t *testing.T) {
	// The form-A sweep's best point is host-bandwidth-limited: more
	// logic cannot help, so the advice targets the memory-execution
	// form, not the resources.
	a := Advise(sweep(t, perf.FormA))
	if a.Wall != "host-bandwidth-wall" {
		t.Errorf("wall = %s, want host-bandwidth-wall", a.Wall)
	}
	if !strings.Contains(strings.Join(a.Actions, " "), "form B") {
		t.Errorf("host-wall advice should suggest form B: %v", a.Actions)
	}
}

func TestAdviseNoFit(t *testing.T) {
	sw := &Sweep{}
	a := Advise(sw)
	if a.BestLanes != 0 || a.Wall != "compute-wall" {
		t.Errorf("no-fit advice = %+v", a)
	}
	if len(a.Actions) == 0 || !strings.Contains(a.Actions[0], "larger device") {
		t.Errorf("no-fit advice should mention a larger device: %v", a.Actions)
	}
	if got := a.String(); !strings.HasPrefix(got, "best variant: none fits; binding constraint: compute-wall\n") {
		t.Errorf("no-fit advice names a variant:\n%s", got)
	}
}

func TestAdviseBandwidthWalls(t *testing.T) {
	// Synthesise sweeps whose best point is bandwidth-limited to check
	// the targeted suggestions.
	mk := func(limiter string) *Sweep {
		p := Point{Lanes: 4, Fits: true, EKIT: 1}
		p.Breakdown.Limiter = limiter
		return &Sweep{Points: []Point{p}, Best: &p}
	}
	host := Advise(mk("host-bandwidth"))
	if host.Wall != "host-bandwidth-wall" || !strings.Contains(strings.Join(host.Actions, " "), "form B") {
		t.Errorf("host advice = %+v", host)
	}
	dram := Advise(mk("dram-bandwidth"))
	if dram.Wall != "dram-bandwidth-wall" || !strings.Contains(strings.Join(dram.Actions, " "), "form C") {
		t.Errorf("dram advice = %+v", dram)
	}
	free := Advise(mk("compute"))
	if free.Wall != "none" || !strings.Contains(strings.Join(free.Actions, " "), "replicate") {
		t.Errorf("headroom advice = %+v", free)
	}
	if got := free.String(); !strings.HasPrefix(got, "best variant: 4 lanes; binding constraint: none\n") {
		t.Errorf("headroom advice summary:\n%s", got)
	}
}
