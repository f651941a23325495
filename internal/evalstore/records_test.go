package evalstore

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/membw"
)

// TestModelsRoundtrip: a calibrated model pair must survive the store
// with every coefficient and table sample bit-exact, and the record
// must not answer for a different target description.
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
	if !reflect.DeepEqual(gotMdl.Ops, mdl.Ops) || !reflect.DeepEqual(gotMdl.DivFit, mdl.DivFit) {
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
// values EstimateVectorised cannot produce is a miss.
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
