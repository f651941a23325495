package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/perf"
	"repro/internal/report"
	"repro/internal/tir"
)

// ---------------------------------------------------- Fig 15 (per device)

// Fig15DevicesResult is Fig 15 replayed across the device shelf: the
// same SOR lane sweep (form B) priced by each target's own calibrated
// cost and bandwidth models in one lanes×device engine run. The
// paper's point that the target description is a one-time input per
// device (Fig 2) becomes observable here: the walls move per device —
// the scaled edu target shows all three walls inside the swept range,
// the full GSD8 never leaves the compute-bound climb, and the
// Virtex-7's baseline single-channel DRAM path pins the sweep to the
// DRAM wall almost immediately.
type Fig15DevicesResult struct {
	Shelf  []*device.Target
	Result *dse.Result
	// Sweeps holds the per-device form-B lane sweeps, in shelf order —
	// each identical to a single-device Fig 15 style run on that target.
	Sweeps []*dse.Sweep
}

// Fig15DevicesShelf is the shelf the experiment replays Fig 15 on:
// the scaled educational target plus the paper's two real devices.
func Fig15DevicesShelf() ([]*device.Target, error) {
	return device.Shelf("stratix-v-gsd8-edu", "stratix-v-gsd8", "virtex-7-690t")
}

// Fig15Devices runs the 1..16-lane SOR sweep of Fig 15 across the
// shelf under form B.
func Fig15Devices() (*Fig15DevicesResult, error) {
	shelf, err := Fig15DevicesShelf()
	if err != nil {
		return nil, err
	}
	build := func(lanes int) (*tir.Module, error) { return Fig15Spec(lanes).Module() }
	space, err := dse.NewSpace(
		dse.LanesAxis(dse.LaneCounts(16)),
		dse.DeviceAxis(shelf...),
	)
	if err != nil {
		return nil, err
	}
	res, err := core.Explore(dse.EvalModel, shelf, models, build, space,
		perf.Workload{NKI: 10}, perf.FormB, dse.Exhaustive{}, 0, dse.SearchOptions{})
	if err != nil {
		return nil, err
	}
	out := &Fig15DevicesResult{Shelf: shelf, Result: res}
	for i := range shelf {
		slice, err := res.Slice(dse.AxisDevice, i)
		if err != nil {
			return nil, err
		}
		sw, err := slice.Sweep(perf.FormB)
		if err != nil {
			return nil, err
		}
		out.Sweeps = append(out.Sweeps, sw)
	}
	return out, nil
}

// Table renders the cross-device sweep with the per-device walls in
// the title. The error is reachable when a caller rebuilds the result
// with a truncated space, so it is returned, not panicked.
func (r *Fig15DevicesResult) Table() (*report.Table, error) {
	walls := ""
	for i, tgt := range r.Shelf {
		if i > 0 {
			walls += ", "
		}
		sw := r.Sweeps[i]
		walls += fmt.Sprintf("%s host=%d dram=%d compute=%d",
			tgt.Name, sw.HostWall, sw.DRAMWall, sw.ComputeWall)
	}
	t, err := report.DeviceSweepTable(
		fmt.Sprintf("Fig 15 per device: SOR variant sweep across the shelf (form B; walls: %s)", walls),
		r.Result)
	if err != nil {
		return nil, fmt.Errorf("experiments: Fig15Devices table: %w", err)
	}
	return t, nil
}
