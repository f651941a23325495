package dse

// This file freezes the pre-engine serial implementations of SweepLanes
// and SweepLanesDV, verbatim, as the reference the engine's sweep
// shapes (Result.Sweep, Result.Sweep2D) are tested against (see
// engine_test.go). Do not "improve" them: their value is that they no
// longer change.

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/membw"
	"repro/internal/perf"
)

func legacySweepLanes(mdl *costmodel.Model, bw *membw.Model, build VariantBuilder,
	lanes []int, w perf.Workload, form perf.Form) (*Sweep, error) {
	if len(lanes) == 0 {
		return nil, fmt.Errorf("dse: no lane counts to sweep")
	}
	sw := &Sweep{Form: form}
	for _, l := range lanes {
		m, err := build(l)
		if err != nil {
			return nil, fmt.Errorf("dse: building %d-lane variant: %w", l, err)
		}
		est, err := mdl.Estimate(m)
		if err != nil {
			return nil, fmt.Errorf("dse: costing %d-lane variant: %w", l, err)
		}
		par, err := perf.Extract(est, bw, w)
		if err != nil {
			return nil, fmt.Errorf("dse: extracting %d-lane parameters: %w", l, err)
		}
		ekit, bd, err := par.EKIT(form)
		if err != nil {
			return nil, fmt.Errorf("dse: evaluating %d-lane variant: %w", l, err)
		}
		p := Point{Lanes: l, Est: est, Par: par, EKIT: ekit, Breakdown: bd, Fits: est.Fits()}
		p.UtilALUT, p.UtilReg, p.UtilBRAM, p.UtilDSP = est.Utilisation()

		demand := par.FD * float64(par.KNL) * float64(par.DV) *
			float64(par.NWPT) * float64(par.WordBytes) / par.CyclesPerItem()
		p.UtilGMemBW = demand / (par.GPB * par.RhoG)
		hostDemand := demand
		if form != perf.FormA {
			hostDemand /= float64(par.NKI)
		}
		p.UtilHostBW = hostDemand / (par.HPB * par.RhoH)

		if !p.Fits && sw.ComputeWall == 0 {
			sw.ComputeWall = l
		}
		if p.UtilHostBW >= 1 && sw.HostWall == 0 {
			sw.HostWall = l
		}
		if p.UtilGMemBW >= 1 && sw.DRAMWall == 0 {
			sw.DRAMWall = l
		}
		sw.Points = append(sw.Points, p)
	}

	for i := range sw.Points {
		p := &sw.Points[i]
		if !p.Fits {
			continue
		}
		if sw.Best == nil || p.EKIT > sw.Best.EKIT {
			sw.Best = p
		}
	}
	return sw, nil
}

func legacySweepLanesDV(mdl *costmodel.Model, bw *membw.Model, build VariantBuilder,
	lanes, dvs []int, w perf.Workload, form perf.Form) (*Sweep2D, error) {
	if len(lanes) == 0 || len(dvs) == 0 {
		return nil, fmt.Errorf("dse: empty lane or DV axis")
	}
	sw := &Sweep2D{Form: form, Lanes: lanes, DVs: dvs}
	for _, l := range lanes {
		m, err := build(l)
		if err != nil {
			return nil, fmt.Errorf("dse: building %d-lane variant: %w", l, err)
		}
		row := make([]Point, 0, len(dvs))
		for _, dv := range dvs {
			est, err := mdl.EstimateVectorised(m, dv)
			if err != nil {
				return nil, fmt.Errorf("dse: costing %d-lane dv=%d variant: %w", l, dv, err)
			}
			par, err := perf.Extract(est, bw, w)
			if err != nil {
				return nil, err
			}
			ekit, bd, err := par.EKIT(form)
			if err != nil {
				return nil, err
			}
			p := Point{Lanes: l, Est: est, Par: par, EKIT: ekit, Breakdown: bd, Fits: est.Fits()}
			p.UtilALUT, p.UtilReg, p.UtilBRAM, p.UtilDSP = est.Utilisation()
			row = append(row, p)
			if p.Fits && (sw.Best == nil || p.EKIT > sw.Best.EKIT) {
				best := p
				sw.Best = &best
			}
		}
		sw.Points = append(sw.Points, row)
	}
	return sw, nil
}
