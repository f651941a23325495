package evalstore

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/membw"
)

// TestModelsRoundtrip: a calibrated model pair must survive the store:
// every bandwidth table sample bit-exact, and a recalibrated cost model
// equal to the one saved. The record must not answer for a different
// target description.
func TestModelsRoundtrip(t *testing.T) {
	s := mustOpen(t)
	tgt := device.GSD8Edu()
	mdl, err := costmodel.Calibrate(tgt)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := membw.Build(tgt)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := LoadModels(s, tgt); ok {
		t.Fatal("hit on empty store")
	}
	if err := SaveModels(s, tgt, mdl, bw); err != nil {
		t.Fatal(err)
	}
	gotMdl, gotBW, ok := LoadModels(s, tgt)
	if !ok {
		t.Fatal("miss after save")
	}
	if !reflect.DeepEqual(gotMdl, mdl) {
		t.Error("cost model differs after store roundtrip")
	}
	if len(gotBW.Table) != len(bw.Table) {
		t.Fatalf("bandwidth table has %d samples, want %d", len(gotBW.Table), len(bw.Table))
	}
	for i, want := range bw.Table {
		got := gotBW.Table[i]
		if math.Float64bits(got.Seconds) != math.Float64bits(want.Seconds) ||
			math.Float64bits(got.SteadySeconds) != math.Float64bits(want.SteadySeconds) {
			t.Fatalf("table sample %d not bit-exact: %v vs %v", i, got, want)
		}
	}

	// A tuned target (same name, different description) hashes to a
	// different key: no stale models for it.
	tuned := *tgt
	tuned.FmaxHz *= 2
	if _, _, ok := LoadModels(s, &tuned); ok {
		t.Error("models served for a tuned target description")
	}
}

// TestEstimateSanityBounds: an estimate record that decodes but carries
// values the cost model cannot produce is a miss.
func TestEstimateSanityBounds(t *testing.T) {
	s := mustOpen(t)
	tgt := device.GSD8Edu()
	key := EstimateKey("ir", 1, tgt)
	cases := map[string]string{
		"zero lanes": `{"lanes":0,"dv":1,"nto":1,"fmax_hz":1e8}`,
		"zero dv":    `{"lanes":1,"dv":0,"nto":1,"fmax_hz":1e8}`,
		"zero fmax":  `{"lanes":1,"dv":1,"nto":1,"fmax_hz":0}`,
		"neg noff":   `{"lanes":1,"dv":1,"nto":1,"fmax_hz":1e8,"noff":-3}`,
		"not object": `"just a string"`,
	}
	for name, payload := range cases {
		if err := s.Put(KindEstimate, key, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		if _, ok := LoadEstimate(s, key, nil, tgt); ok {
			t.Errorf("%s: record served", name)
		}
	}
}

// keyTarget is a fixed target description, independent of the device
// registry, for the key tests.
func keyTarget() *device.Target {
	return &device.Target{
		Name: "key-test", Family: "stratix-v",
		Capacity:  device.Resources{ALUTs: 1000, Regs: 2000, BRAM: 300, DSPs: 40},
		BRAMBlock: 20480, DSPWidth: 27, FmaxHz: 2e8,
		DRAM:              device.DRAMSpec{PeakBandwidth: 1e10},
		Link:              device.LinkSpec{PeakBandwidth: 4e9},
		LaunchOverheadSec: 1e-5,
	}
}

// TestEstimateKeyOfMatchesEstimateKey: the digest route and the text
// route name the same record, so a store written by one is read by
// the other.
func TestEstimateKeyOfMatchesEstimateKey(t *testing.T) {
	tgt := keyTarget()
	for _, ir := range []string{"", "module m {}", strings.Repeat("x", 1<<15)} {
		for _, dv := range []int{1, 2, 16} {
			want := EstimateKeyOf(Fingerprint(ir), dv, Fingerprint(TargetDesc(tgt)))
			if got := EstimateKey(ir, dv, tgt); got != want {
				t.Errorf("EstimateKey(%d-byte IR, dv=%d) = %s, EstimateKeyOf gives %s", len(ir), dv, got, want)
			}
		}
	}
}

// TestEstimateKeyCoversEveryInput: changing the IR, dv or any field of
// the target description changes the key.
func TestEstimateKeyCoversEveryInput(t *testing.T) {
	tgt := keyTarget()
	base := EstimateKey("module m {}", 2, tgt)
	if EstimateKey("module n {}", 2, tgt) == base {
		t.Error("IR not part of the key")
	}
	if EstimateKey("module m {}", 3, tgt) == base {
		t.Error("dv not part of the key")
	}
	// Perturb every leaf field of the flat Target value in turn.
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		}
		old := reflect.ValueOf(v.Interface())
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "'")
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float()*2 + 1)
		default:
			t.Fatalf("Target%s: unhandled kind %s", path, v.Kind())
		}
		if EstimateKey("module m {}", 2, tgt) == base {
			t.Errorf("Target%s not part of the key", path)
		}
		v.Set(old)
	}
	walk("", reflect.ValueOf(tgt).Elem())
	if EstimateKey("module m {}", 2, tgt) != base {
		t.Fatal("perturbation not undone")
	}
}

// TestKeysGolden pins the content addresses of a fixed input: a change
// to the key construction that does not bump the record's schema
// version fails here instead of silently re-keying (or, worse,
// aliasing) the records on disk.
func TestKeysGolden(t *testing.T) {
	tgt := keyTarget()
	for _, c := range []struct{ name, got, want string }{
		{"estimate", EstimateKey("module m {}", 4, tgt), "f94d3bf7e2732552d3fb2057fd7d0f0f39b5d3f19eb875f6e287464460781cbc"},
		{"models", ModelsKey(tgt), "754fe2d33dac2a82822f448ce8b8bf3647509ad4e1bf446cdcbcc5c978810642"},
	} {
		if c.got != c.want {
			t.Errorf("%s key = %s, want %s", c.name, c.got, c.want)
		}
	}
}
