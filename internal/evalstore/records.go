package evalstore

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/membw"
	"repro/internal/tir"
)

// The two record kinds of the store, with their schema versions.
// Bump a version whenever the payload format — or the semantics of the
// computation that produced it — changes: old records then hash to
// different keys and are simply recomputed.
const (
	// KindModels archives the one calibration artifact that costs more
	// to recompute than to read back: a target's membw benchmark table
	// (membw.Build, milliseconds per target). The cost model is not
	// archived: LoadModels recalibrates it (costmodel.Calibrate, tens of
	// microseconds), so a change to Calibrate needs no version bump. v2:
	// the payload became the table text alone.
	KindModels    = "models"
	ModelsVersion = 2
	// KindEstimate archives one CompiledModel.EstimateVectorised outcome
	// per (kernel IR, dv, target). v2: the per-function resource map
	// left the Estimate (and with it the payload) when the compiled
	// estimate program landed. v3: the key hashes the digests of the
	// kernel IR and the target description instead of their text.
	// Records of an older version hash to different keys and are simply
	// recomputed.
	KindEstimate    = "estimate"
	EstimateVersion = 3
)

// TargetDesc renders the full target description for content keys.
// Target is a flat value struct (no pointers, no maps), so the %+v
// rendering is deterministic and covers every field — a tuned target
// that kept its name still gets its own records.
func TargetDesc(t *device.Target) string { return fmt.Sprintf("%+v", *t) }

// ---- calibrated per-device models ----

// ModelsKey addresses a target's calibrated-models record.
func ModelsKey(t *device.Target) string {
	return Key(KindModels, ModelsVersion, TargetDesc(t))
}

// SaveModels archives the bandwidth benchmark table of a target, as a
// JSON string holding the membw.SaveTable text (shortest-roundtrip
// floats, so the Save → Load cycle is bit-exact). mdl is read by
// nothing: LoadModels recalibrates the cost model, and the parameter
// stays only until the benchmark stops passing it.
func SaveModels(s *Store, t *device.Target, mdl *costmodel.Model, bw *membw.Model) error {
	var table strings.Builder
	if err := bw.SaveTable(&table); err != nil {
		return err
	}
	payload, err := json.Marshal(table.String())
	if err != nil {
		return err
	}
	return s.Put(KindModels, ModelsKey(t), payload)
}

// LoadModels rebuilds a target's models: the bandwidth model from the
// archived table, the cost model by calibrating it. It reports
// ok=false (recompute) on a miss, or on a payload that is not a table
// membw.LoadModel accepts.
func LoadModels(s *Store, t *device.Target) (*costmodel.Model, *membw.Model, bool) {
	data, ok := s.Get(KindModels, ModelsKey(t))
	if !ok {
		return nil, nil, false
	}
	var table string
	if err := json.Unmarshal(data, &table); err != nil {
		return nil, nil, false
	}
	bw, err := membw.LoadModel(t, strings.NewReader(table))
	if err != nil {
		return nil, nil, false
	}
	mdl, err := costmodel.Calibrate(t)
	if err != nil {
		return nil, nil, false
	}
	return mdl, bw, true
}

// ---- model estimates ----

// estimatePayload is costmodel.Estimate minus its Module and Target
// pointers, which the loader rehydrates from context (the key already
// covers both: the kernel IR and the full target description).
type estimatePayload struct {
	Used   device.Resources `json:"used"`
	KPD    int              `json:"kpd"`
	Noff   int64            `json:"noff"`
	NI     int              `json:"ni"`
	Lanes  int              `json:"lanes"`
	DV     int              `json:"dv"`
	NTO    int              `json:"nto"`
	FmaxHz float64          `json:"fmax_hz"`
	Config int              `json:"config"`
}

// EstimateKey addresses one vectorised estimate: the kernel IR (which
// already encodes the lane count), the dv axis value, and the target.
// It is EstimateKeyOf over the digests of the IR and the target
// description, so both name the same record.
func EstimateKey(moduleIR string, dv int, t *device.Target) string {
	return EstimateKeyOf(Fingerprint(moduleIR), dv, Fingerprint(TargetDesc(t)))
}

// EstimateKeyOf is EstimateKey from digests: irDigest is
// Fingerprint(moduleIR) and targetDigest Fingerprint(TargetDesc(t)). A
// caller keying every dv of a module, or every record of a target,
// computes each digest once and hashes ~170 bytes per record.
func EstimateKeyOf(irDigest string, dv int, targetDigest string) string {
	return Key(KindEstimate, EstimateVersion, irDigest, "dv="+strconv.Itoa(dv), targetDigest)
}

// SaveEstimate archives one costed variant.
func SaveEstimate(s *Store, key string, est *costmodel.Estimate) error {
	payload, err := json.Marshal(estimatePayload{
		Used: est.Used,
		KPD:  est.KPD, Noff: est.Noff, NI: est.NI,
		Lanes: est.Lanes, DV: est.DV, NTO: est.NTO,
		FmaxHz: est.FmaxHz, Config: int(est.Config),
	})
	if err != nil {
		return err
	}
	return s.Put(KindEstimate, key, payload)
}

// LoadEstimate rebuilds an estimate against the module and target it
// was computed from, or reports ok=false to recompute.
func LoadEstimate(s *Store, key string, m *tir.Module, t *device.Target) (*costmodel.Estimate, bool) {
	data, ok := s.Get(KindEstimate, key)
	if !ok {
		return nil, false
	}
	var p estimatePayload
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, false
	}
	// A record these sanity bounds reject decoded but cannot have come
	// from the cost model; recompute rather than propagate it.
	if p.Lanes < 1 || p.DV < 1 || p.NTO < 1 || p.FmaxHz <= 0 || p.KPD < 0 || p.Noff < 0 || p.NI < 0 {
		return nil, false
	}
	return &costmodel.Estimate{
		Module: m, Target: t,
		Used: p.Used,
		KPD:  p.KPD, Noff: p.Noff, NI: p.NI,
		Lanes: p.Lanes, DV: p.DV, NTO: p.NTO,
		FmaxHz: p.FmaxHz, Config: tir.Config(p.Config),
	}, true
}
