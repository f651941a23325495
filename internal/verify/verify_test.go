package verify

import (
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/elab"
	"repro/internal/kernels"
	"repro/internal/tir"
)

// sorDesign elaborates the default SOR kernel.
func sorDesign(t *testing.T) *elab.Design {
	t.Helper()
	m, err := kernels.DefaultSOR().Module()
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(m)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeviceFitAcceptsRealKernel(t *testing.T) {
	target := device.StratixVGSD8()
	mdl, err := costmodel.Calibrate(target)
	if err != nil {
		t.Fatal(err)
	}
	if l := DeviceFitModel(sorDesign(t), mdl, target); len(l) != 0 {
		t.Errorf("SOR on GSD8 should fit, got %v", l)
	}
}

func TestDeviceFitRejectsOversizedDesign(t *testing.T) {
	target := device.StratixVGSD8()
	mdl, err := costmodel.Calibrate(target)
	if err != nil {
		t.Fatal(err)
	}
	tiny := *target
	tiny.Name = "tiny"
	tiny.Capacity = device.Resources{ALUTs: 10, Regs: 10, BRAM: 10, DSPs: 0}
	l := DeviceFitModel(sorDesign(t), mdl, &tiny)
	if len(l) != 1 || l[0].Code != tir.CodeDeviceFit {
		t.Fatalf("want one TIR090 finding, got %v", l)
	}
	if !strings.Contains(l[0].Msg, "tiny") {
		t.Errorf("finding does not name the target: %s", l[0].Msg)
	}
	if !l.HasErrors() {
		t.Error("device-fit finding must be an error")
	}
}
