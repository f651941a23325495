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

func TestAdviseNoFitNamesBRAM(t *testing.T) {
	// Form C stages the NDRange in block RAM: the smallest variant needs
	// far more of it than of any logic resource, so the advice names
	// block RAM and points away from form C, not at per-lane logic.
	sw := sweep(t, perf.FormC)
	if sw.Best != nil {
		t.Fatalf("form C sweep fits at %d lanes", sw.Best.Lanes)
	}
	if p := sw.Points[0]; p.UtilBRAM <= p.UtilALUT {
		t.Fatalf("smallest form C variant: BRAM %.0f%%, ALUT %.0f%%; want BRAM to bind", p.UtilBRAM*100, p.UtilALUT*100)
	}
	a := Advise(sw)
	if a.Wall != "compute-wall" || len(a.Actions) != 1 {
		t.Fatalf("advice = %+v", a)
	}
	for _, want := range []string{"block RAM", "form B", "tile"} {
		if !strings.Contains(a.Actions[0], want) {
			t.Errorf("BRAM advice does not mention %q: %s", want, a.Actions[0])
		}
	}
	if strings.Contains(a.Actions[0], "per-lane logic") {
		t.Errorf("BRAM advice suggests cutting logic: %s", a.Actions[0])
	}
	if got := sw.NoFit(); got != "no variant fits the device" {
		t.Errorf("NoFit() = %q", got)
	}
}

func TestAdviseNoFitLogic(t *testing.T) {
	// Lanes 9..16 of the form B sweep all lie past the compute wall, out
	// of ALUTs: the advice stays on per-lane logic.
	mdl, bw := fixtures(t)
	res, err := exhaustive(mdl, bw, sorBuilder, perf.Workload{NKI: 10}, perf.FormB, LanesAxis([]int{9, 10, 11, 12, 13, 14, 15, 16}))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := res.Sweep(perf.FormB)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Best != nil {
		t.Fatalf("lanes 9..16 fit at %d lanes", sw.Best.Lanes)
	}
	a := Advise(sw)
	if len(a.Actions) != 1 || !strings.Contains(a.Actions[0], "reduce per-lane logic") {
		t.Errorf("logic advice = %v", a.Actions)
	}
	if got := sw.NoFit(); got != "no variant fits the device" {
		t.Errorf("NoFit() = %q", got)
	}
}

func TestAdviseNoFitUnsearched(t *testing.T) {
	// A search that evaluated only lanes 9..16 of 1..16 has not shown
	// that nothing fits: lanes 1..8 might. Both the sweep line and the
	// advice say how much was searched and ask for more, whatever the
	// evaluated variants overflow.
	full := sweep(t, perf.FormC)
	sw := *full
	sw.Points = full.Points[8:]
	const line = "no evaluated variant fits (8 of 16 lane counts evaluated)"
	if got := sw.NoFit(); got != line {
		t.Errorf("NoFit() = %q, want %q", got, line)
	}
	a := Advise(&sw)
	if a.Wall != "compute-wall" || len(a.Actions) != 1 ||
		a.Actions[0] != line+": raise -budget or use -strategy exhaustive" {
		t.Errorf("unsearched advice = %+v", a)
	}

	// On a shelf, a device the search never reached counts as unsearched
	// too; only sweeps that all evaluated their smallest lane count show
	// that no variant fits any device.
	pruned := &Sweep{Lanes: full.Lanes}
	for _, c := range []struct {
		sweeps []*Sweep
		want   string
	}{
		{[]*Sweep{full, full}, "no variant fits any device on the shelf"},
		{[]*Sweep{full, &sw}, "no evaluated variant fits any device on the shelf (24 of 32 variants evaluated): raise -budget or use -strategy exhaustive"},
		{[]*Sweep{full, pruned}, "no evaluated variant fits any device on the shelf (16 of 32 variants evaluated): raise -budget or use -strategy exhaustive"},
	} {
		if got := ShelfNoFit(c.sweeps); got != c.want {
			t.Errorf("ShelfNoFit = %q, want %q", got, c.want)
		}
	}
}
