package main

import (
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/evalstore"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/pipesim"
	"repro/internal/tir"
)

// runLayers are the leaf layers of a traced run, in pipeline order.
// kernels.build, dse.siminputs and report.render are timed in situ; the
// others by replay. With dse.engine_self_s and dse.unattributed_s they
// sum to bench.traced_total_s.
var runLayers = []string{
	"kernels.build", "tir.print", "evalstore.key", "evalstore.get",
	"costmodel.compile", "costmodel.estimate", "evalstore.put",
	"dse.siminputs", "pipesim.compile", "pipesim.run", "perf.extract",
	"report.render",
}

// replayOut is what a replay measures besides its spans.
type replayOut struct {
	items, bytesRead, bytesWritten int64
}

// layer times one replayed layer: f makes the layer's n calls under a
// span named after it. A layer the run did not call is not timed.
func (t *tracer) layer(name string, n int, f func() error) error {
	if n == 0 {
		return nil
	}
	id := t.begin(name)
	err := f()
	t.end(id, n)
	return err
}

// replay calls each leaf layer's public function again, one layer at a
// time and in pipeline order, on exactly the inputs the traced run
// touched: the modules it built, the estimates it read or computed, the
// designs it simulated and the points it priced. It also checks that it
// reproduces the run.
func (b *bench) replay(tr *tracer) (replayOut, error) {
	var out replayOut
	root := tr.begin("bench.replay")
	defer tr.end(root, 1)

	type estUse struct {
		m   *tir.Module
		dev string
		dv  int
	}
	var (
		mods    []*tir.Module
		ests    []estUse
		runEsts []*costmodel.Estimate
		cycles  = map[*tir.Module]int64{}
		seenMod = map[*tir.Module]bool{}
		seenEst = map[estUse]bool{}
	)
	for _, c := range tr.calls {
		p := c.point
		e := estUse{p.Est.Module, b.device(p), p.Est.DV}
		if !seenMod[e.m] {
			seenMod[e.m] = true
			mods = append(mods, e.m)
		}
		if !seenEst[e] {
			seenEst[e] = true
			ests = append(ests, e)
			runEsts = append(runEsts, p.Est)
		}
		cycles[e.m] = p.SimCycles
	}

	// Without a store every estimate is computed. With one, the run
	// computed those the store missed; the replay reads the same starting
	// store to find them.
	computed := make([]int, len(ests))
	for i := range computed {
		computed[i] = i
	}
	var st *evalstore.Store
	var before map[string]fileStamp
	keys := make([]string, len(ests))
	if b.w.store != noStore {
		irs := make(map[*tir.Module]string, len(mods))
		tr.layer("tir.print", len(mods), func() error {
			for _, m := range mods {
				irs[m] = m.String()
			}
			return nil
		})
		tr.layer("evalstore.key", len(ests), func() error {
			for i, e := range ests {
				keys[i] = evalstore.EstimateKey(irs[e.m], e.dv, b.target(e.dev))
			}
			return nil
		})
		dir, err := b.runDir()
		if err != nil {
			return out, err
		}
		if before, err = snapshot(dir); err != nil {
			return out, err
		}
		if st, err = evalstore.Open(dir); err != nil {
			return out, err
		}
		computed = computed[:0]
		var hits []string
		models := 0
		tr.layer("evalstore.get", len(b.shelf)+len(ests), func() error {
			for _, t := range b.shelf {
				if _, _, ok := evalstore.LoadModels(st, t); ok {
					hits = append(hits, recordFile(evalstore.KindModels, evalstore.ModelsKey(t)))
				}
			}
			models = len(hits)
			for i, e := range ests {
				if _, ok := evalstore.LoadEstimate(st, keys[i], e.m, b.target(e.dev)); ok {
					hits = append(hits, recordFile(evalstore.KindEstimate, keys[i]))
				} else {
					computed = append(computed, i)
				}
			}
			return nil
		})
		b.tally.check(models == len(b.shelf), "replay: %d of %d model records load", models, len(b.shelf))
		for _, name := range hits {
			out.bytesRead += before[name].size
		}
	}

	type modDev struct {
		m   *tir.Module
		dev string
	}
	cms := map[modDev]*costmodel.CompiledModel{}
	var order []modDev
	for _, i := range computed {
		k := modDev{ests[i].m, ests[i].dev}
		if _, ok := cms[k]; !ok {
			cms[k] = nil
			order = append(order, k)
		}
	}
	err := tr.layer("costmodel.compile", len(order), func() (err error) {
		for _, k := range order {
			if cms[k], err = b.models[k.dev].mdl.Compile(k.m); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	fresh := make([]*costmodel.Estimate, len(computed))
	err = tr.layer("costmodel.estimate", len(computed), func() (err error) {
		for j, i := range computed {
			if fresh[j], err = cms[modDev{ests[i].m, ests[i].dev}].EstimateVectorised(ests[i].dv); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	same := 0
	for j, i := range computed {
		if sameEstimate(fresh[j], runEsts[i]) {
			same++
		}
	}
	b.tally.check(same == len(computed), "replay: %d of %d estimates match the run", same, len(computed))

	if st != nil {
		err = tr.layer("evalstore.put", len(computed), func() error {
			for j, i := range computed {
				if err := evalstore.SaveEstimate(st, keys[i], fresh[j]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return out, err
		}
		after, err := snapshot(st.Dir())
		if err != nil {
			return out, err
		}
		for _, name := range sortedKeys(after) {
			if after[name] != before[name] {
				out.bytesWritten += after[name].size
			}
		}
	}

	designs := make([]*pipesim.CompiledDesign, len(tr.sims))
	err = tr.layer("pipesim.compile", len(tr.sims), func() (err error) {
		for i, s := range tr.sims {
			if designs[i], err = pipesim.CompileConfig(s.m, pipesim.Config{}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	for i, s := range tr.sims {
		// Regenerating the workload is not timed: the run's
		// dse.siminputs span holds it.
		mem, err := dse.SimInputs(s.m, s.seed)
		if err != nil {
			return out, err
		}
		var res *pipesim.Result
		if err := tr.layer("pipesim.run", 1, func() (err error) { res, err = designs[i].Run(mem); return err }); err != nil {
			return out, err
		}
		out.items += res.Items
		b.tally.check(res.Cycles == cycles[s.m], "replay: simulated %d cycles, the run %d", res.Cycles, cycles[s.m])
	}

	mismatch := 0
	err = tr.layer("perf.extract", len(tr.calls), func() error {
		for _, c := range tr.calls {
			p := c.point
			par, err := perf.Extract(p.Est, b.models[b.device(p)].bw, workloadNKI)
			if err != nil {
				return err
			}
			if mhz, ok := c.space.Value(c.variant, dse.AxisFclk); ok {
				par.FD = dse.FclkHz(mhz)
			}
			ekit, _, err := par.EKIT(perf.Form(c.space.ValueDefault(c.variant, dse.AxisForm, int(perf.FormB))))
			if err != nil {
				return err
			}
			if ekit != p.ModelEKIT {
				mismatch++
			}
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	b.tally.check(mismatch == 0, "replay: %d of %d points price differently", mismatch, len(tr.calls))
	return out, nil
}

// traced measures the per-layer ledger: single-worker cycles of an
// untraced run (for allocations and the tracing overhead), a traced run
// and its replay, until the time is up. The cycle with the median traced
// total supplies every layer, so the layers keep summing to its total.
// Only the first cycle's spans are kept for -trace-json.
func (b *bench) traced(m map[string]stat, seconds float64, tr *tracer, setupRun int) {
	calRun, err := b.replaySetUp(tr)
	if !b.tallyOp(err, "set-up replay") {
		return
	}
	type cycle struct {
		secs          map[string]float64
		calls         map[string]int
		plainSecs     float64
		allocs, bytes float64
		evals         int
		replay        replayOut
	}
	var cycles []cycle
	var totals []float64
	start := now()
	// A cycle writes three cold stores: the untraced run's, the traced
	// run's and the replay's.
	for n := 0; b.again(n, start, seconds, coldRuns/3); n++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		plain, err := b.run(1, nil)
		runtime.ReadMemStats(&m1)
		if !b.tallyOp(err, "untraced run") {
			continue
		}
		mark, id := len(tr.spans), tr.newRun()
		traced, err := b.run(1, tr)
		if !b.tallyOp(err, "traced run") {
			return
		}
		b.tally.check(traced.digest == plain.digest, "tracing changed the points")
		b.tally.check(traced.report == plain.report, "tracing changed the report")
		b.checkRun(traced)
		rep, err := b.replay(tr)
		if !b.tallyOp(err, "replay") {
			return
		}
		c := cycle{plainSecs: plain.secs, evals: traced.evals, replay: rep,
			allocs: float64(m1.Mallocs - m0.Mallocs), bytes: float64(m1.TotalAlloc - m0.TotalAlloc)}
		c.secs, c.calls = tr.sums(id)
		cycles = append(cycles, c)
		totals = append(totals, c.secs["bench.run"])
		if n > 0 {
			tr.spans = tr.spans[:mark]
		}
	}
	if len(cycles) == 0 {
		return
	}
	c := cycles[medianIndex(totals)]
	secs, calls := c.secs, c.calls
	v := map[string]float64{}
	total := secs["bench.run"]
	accounted := 0.0
	for _, name := range runLayers {
		v[name+"_s"] = secs[name]
		accounted += secs[name]
	}
	evals := float64(c.evals)
	v["dse.engine_self_s"] = secs["dse.search"] - secs["dse.eval"]
	v["dse.unattributed_s"] = total - accounted - v["dse.engine_self_s"]
	v["dse.unattributed_frac"] = v["dse.unattributed_s"] / total
	v["dse.engine_ns_per_point"] = v["dse.engine_self_s"] / evals * 1e9
	v["dse.allocs_per_point"] = c.allocs / evals
	v["dse.bytes_per_point"] = c.bytes / evals
	v["dse.evals"] = evals
	v["dse.eval_calls"] = float64(calls["dse.eval"])
	v["pipesim.runs"] = float64(calls["pipesim.run"])
	v["pipesim.items"] = float64(c.replay.items)
	if c.replay.items > 0 {
		v["pipesim.ns_per_item"] = secs["pipesim.run"] / float64(c.replay.items) * 1e9
	}
	v["kernels.builds"] = float64(calls["kernels.build"])
	v["costmodel.compiles"] = float64(calls["costmodel.compile"])
	v["costmodel.estimates"] = float64(calls["costmodel.estimate"])
	v["evalstore.gets"] = float64(calls["evalstore.get"])
	v["evalstore.puts"] = float64(calls["evalstore.put"])
	v["evalstore.bytes_read"] = float64(c.replay.bytesRead)
	v["evalstore.bytes_written"] = float64(c.replay.bytesWritten)
	setup, _ := tr.sums(setupRun)
	cal, _ := tr.sums(calRun)
	v["membw.build_s"] = cal["membw.build"]
	v["costmodel.calibrate_s"] = cal["costmodel.calibrate"]
	v["evalstore.load_models_s"] = setup["evalstore.load_models"]
	v["bench.traced_total_s"] = total
	v["bench.trace_overhead_frac"] = (total - c.plainSecs) / c.plainSecs
	for _, d := range perLayer {
		m[d.name] = stat{Value: v[d.name], Unit: d.unit}
	}
}

// sameEstimate compares two estimates of one variant field by field.
func sameEstimate(a, b *costmodel.Estimate) bool {
	x, y := *a, *b
	x.Module, x.Target, y.Module, y.Target = nil, nil, nil, nil
	return x == y
}

// replaySetUp times calibration once per target, on the targets the
// set-up calibrated: the set-up builds its models through a model cache,
// which does both in one call.
func (b *bench) replaySetUp(tr *tracer) (int, error) {
	run := tr.newRun()
	root := tr.begin("bench.setup-replay")
	defer tr.end(root, 1)
	if b.w.store == warmStore {
		return run, nil
	}
	for _, t := range b.shelf {
		err := tr.layer("costmodel.calibrate", 1, func() error { _, err := costmodel.Calibrate(t); return err })
		if err == nil {
			err = tr.layer("membw.build", 1, func() error { _, err := membw.Build(t); return err })
		}
		if err != nil {
			return run, err
		}
	}
	return run, nil
}

// device names the shelf entry that priced a point.
func (b *bench) device(p *dse.Point) string {
	if p.Device != "" {
		return p.Device
	}
	return b.shelf[0].Name
}

func (b *bench) target(name string) *device.Target {
	for _, t := range b.shelf {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// recordFile is the file name evalstore gives a record.
func recordFile(kind, key string) string { return kind + "-" + key + ".json" }

// fileStamp identifies one version of a file.
type fileStamp struct {
	size  int64
	mtime int64
}

// snapshot records the name, size and modification time of every file
// in a directory.
func snapshot(dir string) (map[string]fileStamp, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]fileStamp, len(entries))
	for _, e := range entries {
		info, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = fileStamp{size: info.Size(), mtime: info.ModTime().UnixNano()}
	}
	return out, nil
}
