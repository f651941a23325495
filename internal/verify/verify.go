// Package verify hosts the target-dependent static checks of tytravet:
// analyses that need more than the IR itself (a device description, a
// calibrated cost model) and therefore cannot live in internal/tir.
package verify

import (
	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/diag"
	"repro/internal/elab"
	"repro/internal/tir"
)

// DeviceFitModel statically checks that the elaborated design's
// resource estimate, priced by a model calibrated for target, fits the
// device (TIR090). The estimate is the same fast cost-model path the
// DSE uses, so a design rejected here would be rejected by every
// downstream flow; catching it at vet time saves a simulation or
// synthesis round trip.
func DeviceFitModel(d *elab.Design, mdl *costmodel.Model, target *device.Target) diag.List {
	est, err := mdl.Estimate(d)
	if err != nil {
		return diag.AsList(err, tir.CodeDeviceFit)
	}
	if est.Used.FitsIn(target.Capacity) {
		return nil
	}
	util, worst := est.Used.MaxUtilisation(target.Capacity)
	var l diag.List
	l.Errorf(tir.CodeDeviceFit, d.Root().Func.At,
		"design does not fit %s: needs %s of %s (%.0f%% of %s)",
		target.Name, est.Used, target.Capacity, util*100, worst)
	return l
}
