package main

import (
	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/evalstore"
	"repro/internal/membw"
	"repro/internal/perf"
)

// This file holds every call the benchmark makes to an evaluator
// constructor or to the engine, so a change to the DSE construction
// surface re-points only these functions.

// modelEvaluator is the single-target cost-model evaluator (tytradse
// -eval model).
func modelEvaluator(mdl *costmodel.Model, bw *membw.Model, build dse.VariantBuilder,
	w perf.Workload, form perf.Form) dse.Evaluator {
	return dse.NewEvaluator(mdl, bw, build, w, form)
}

// simEvaluator is the single-target simulation-scored evaluator
// (tytradse -eval sim).
func simEvaluator(mdl *costmodel.Model, bw *membw.Model, build dse.VariantBuilder,
	w perf.Workload, form perf.Form, cfg dse.SimConfig) dse.Evaluator {
	return dse.NewSimEvaluator(mdl, bw, build, w, form, cfg)
}

// storeShelfEvaluator is the device-shelf evaluator over a persistent
// evaluation store (tytradse -devices ... -cache DIR): calibrated
// models, estimates and their write-backs all go through st.
func storeShelfEvaluator(shelf []*device.Target, build dse.VariantBuilder,
	w perf.Workload, form perf.Form, st *evalstore.Store) (dse.Evaluator, error) {
	return dse.NewDeviceModeEvaluatorStore(dse.EvalModel, shelf, build, w, form, dse.SimConfig{}, st)
}

// cachedShelfEvaluator is the device-shelf evaluator over an in-memory
// model cache calibrated beforehand.
func cachedShelfEvaluator(shelf []*device.Target, build dse.VariantBuilder,
	w perf.Workload, form perf.Form, cache *dse.ModelCache) (dse.Evaluator, error) {
	return dse.NewDeviceModeEvaluatorCache(dse.EvalModel, shelf, build, w, form, dse.SimConfig{}, cache)
}

// search runs one exploration on a fresh engine.
func search(space *dse.Space, eval dse.Evaluator, workers int,
	st dse.Strategy, opts dse.SearchOptions) (*dse.Result, error) {
	return dse.NewEngine(space, eval, workers).Search(st, opts)
}
