// Command bench is the repository's end-to-end benchmark. It drives the
// DSE library in-process the way tytradse does — fresh evaluators and
// engines per run, explorations, report rendering — on five workloads,
// checks every run's output, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {"run_s": {"value": 0.71, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones (run time,
// throughput, set-up time, peak memory); with -trace 1 they are the
// per-layer ledger of a traced single-worker run. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//	                  [-out FILE] [-trace-json FILE] [-scale full|small]
//	bash bench/run.sh -compare A.json[,A2.json...] B.json[,B2.json...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/device"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports, as BENCHMARK.json
// lists them.
var endToEnd = []metricDef{
	{"run_s", "s"}, {"points_per_s", "points/s"}, {"setup_s", "s"}, {"peak_rss_mb", "MiB"},
}

// The result file records two more end-to-end metrics, gated by
// -compare with bound 0: failed_frac, and cpki_err_pct on sim-sweep (the
// mean |model CPKI − simulated cycles| / simulated cycles, in percent).
var gatedExtra = []metricDef{{"failed_frac", "frac"}, {"cpki_err_pct", "%"}}

// perLayer are the metrics a -trace 1 run reports, as BENCHMARK.json
// lists them. A layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"dse.engine_self_s", "s"}, {"dse.engine_ns_per_point", "ns/point"},
	{"dse.allocs_per_point", "allocs/point"}, {"dse.bytes_per_point", "B/point"},
	{"dse.unattributed_s", "s"}, {"dse.unattributed_frac", "frac"},
	{"perf.extract_s", "s"},
	{"pipesim.compile_s", "s"}, {"pipesim.run_s", "s"}, {"pipesim.runs", "count"},
	{"pipesim.items", "count"}, {"pipesim.ns_per_item", "ns/item"}, {"dse.siminputs_s", "s"},
	{"evalstore.get_s", "s"}, {"evalstore.gets", "count"}, {"evalstore.bytes_read", "B"},
	{"evalstore.key_s", "s"}, {"tir.print_s", "s"}, {"kernels.build_s", "s"}, {"kernels.builds", "count"},
	{"evalstore.put_s", "s"}, {"evalstore.puts", "count"}, {"evalstore.bytes_written", "B"},
	{"costmodel.compile_s", "s"}, {"costmodel.compiles", "count"},
	{"costmodel.estimate_s", "s"}, {"costmodel.estimates", "count"},
	{"membw.build_s", "s"}, {"costmodel.calibrate_s", "s"}, {"evalstore.load_models_s", "s"},
	{"report.render_s", "s"}, {"dse.evals", "count"}, {"dse.eval_calls", "count"},
	{"bench.traced_total_s", "s"}, {"bench.trace_overhead_frac", "frac"},
}

// stat is one metric as the result file records it. Timed metrics carry
// their sample count, quartiles and tail: the highest percentile with at
// least ten samples beyond it, when there are that many.
type stat struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	N       int     `json:"n,omitempty"`
	Q1      float64 `json:"q1,omitempty"`
	Q3      float64 `json:"q3,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// result is one workload's outcome.
type result struct {
	Name      string          `json:"name"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Failures  []string        `json:"failures,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	CPUs      int      `json:"cpus"`
	Workers   int      `json:"workers"`
	Go        string   `json:"go"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     int      `json:"trace"`
	Scale     string   `json:"scale"`
	Workloads []result `json:"workloads"`
}

// options are the parsed flags of a measuring invocation.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	sc      scale
	workers int
	workdir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	only := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed for the fclk axis values, search seeds and simulation inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure each workload, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: the per-layer ledger of a traced single-worker run")
	scaleName := fs.String("scale", "full", "workload size: full or small")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch stores")
	out := fs.String("out", "", "write the full result as JSON to this file")
	traceJSON := fs.String("trace-json", "", "write the recorded spans as Chrome trace-event JSON to this file")
	compareMode := fs.Bool("compare", false, "compare two result sets: -compare A.json[,...] B.json[,...]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result sets")
			return 2
		}
		regressed, err := compare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}

	sc, ok := scales[*scaleName]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: bad -scale, -trace or -seconds")
		return 2
	}
	var chosen []*workload
	for _, w := range workloads {
		if *only == "all" || *only == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have: %s)\n", *only, strings.Join(names, ", "))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	spreadDirs(dir)

	// The engine runs with one worker per CPU, as tytradse's -j 0 does.
	workers := runtime.NumCPU()
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, sc: sc, workers: workers, workdir: dir}
	file := resultFile{CPUs: runtime.NumCPU(), Workers: workers, Go: runtime.Version(), Seed: *seed,
		Seconds: *seconds, Trace: *trace, Scale: *scaleName}
	tr := newTracer()
	for _, w := range chosen {
		res := measure(w, o, tr)
		printResult(stdout, res)
		file.Workloads = append(file.Workloads, res)
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if *traceJSON != "" {
		if err := tr.writeChrome(*traceJSON); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line, err := summaryLine(file.Workloads, defs)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// measure runs one workload: set-up repetitions, the Fig 15 set-up
// check, then the end-to-end or the traced measurement.
func measure(w *workload, o options, tr *tracer) result {
	res := result{Name: w.name, Metrics: map[string]stat{}}
	b := &bench{w: w, sc: o.sc, rng: rand.New(rand.NewSource(o.seed)), workers: o.workers, dir: o.workdir}
	var err error
	b.shelf, err = device.Shelf(w.shelf...)
	if err == nil && w.store == warmStore {
		err = b.prepareWarm()
	}
	if !b.tallyOp(err, "preparing") {
		return finish(res, b)
	}

	var setups []float64
	var setupRuns []int
	for i := 0; i < o.sc.setupReps; i++ {
		run := tr.newRun()
		secs, err := b.setUp(tr)
		if b.tallyOp(err, "set-up") {
			setups = append(setups, secs)
			setupRuns = append(setupRuns, run)
		}
	}
	if len(setups) == 0 {
		return finish(res, b)
	}
	b.jobs, err = w.plan(b)
	if !b.tallyOp(err, "planning the workload") || !b.tallyOp(b.checkFig15(), "Fig 15 set-up check") {
		return finish(res, b)
	}
	var coldDigest string
	if w.store == warmStore {
		pop, err := b.run(o.workers, nil)
		if !b.tallyOp(err, "populating the warm store") {
			return finish(res, b)
		}
		coldDigest = pop.digest
	}

	if o.trace {
		b.traced(res.Metrics, o.seconds, tr, setupRuns[medianIndex(setups)])
	} else {
		res.Metrics["setup_s"] = distribution(setups, "s")
		b.endToEnd(res.Metrics, o.seconds, coldDigest)
	}
	return finish(res, b)
}

// tallyOp counts an operation and reports whether it succeeded.
func (b *bench) tallyOp(err error, what string) bool {
	return b.tally.check(err == nil, "%s: %v", what, err)
}

func finish(res result, b *bench) result {
	res.Attempted, res.Failed, res.Failures = b.tally.attempted, b.tally.failed, b.tally.failures
	res.Correct = res.Failed == 0
	res.Metrics["failed_frac"] = stat{Value: float64(res.Failed) / float64(res.Attempted), Unit: "frac"}
	return res
}

// tally counts attempted checks and operations and keeps the failures.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// endToEnd measures the user-visible metrics: one untimed single-worker
// warm-up run, whose points and report every timed run must reproduce,
// then timed runs at the configured worker count until the time is up.
func (b *bench) endToEnd(m map[string]stat, seconds float64, coldDigest string) {
	var stamps map[string]fileStamp
	if b.w.store == warmStore {
		var err error
		if stamps, err = snapshot(b.seedDir); !b.tallyOp(err, "snapshotting the warm store") {
			return
		}
	}
	ref, err := b.run(1, nil)
	if !b.tallyOp(err, "warm-up run") {
		return
	}
	b.checkRun(ref)
	if b.w.store == warmStore {
		b.tally.check(ref.digest == coldDigest, "store-warm points differ from the cold run's")
	}
	if pct, ok := cpkiErrPct(ref); ok {
		m["cpki_err_pct"] = stat{Value: pct, Unit: "%"}
		b.tally.check(pct <= cpkiTolPct, "model CPKI is %.3g%% off the simulated cycles (tolerance %g%%)", pct, cpkiTolPct)
	}

	reset := resetPeakRSS()
	var secs, rates []float64
	start := now()
	for n := 0; b.again(n, start, seconds, coldRuns); n++ {
		o, err := b.run(b.workers, nil)
		if b.tallyOp(err, "run") {
			secs = append(secs, o.secs)
			rates = append(rates, float64(o.evals)/o.secs)
			b.tally.check(o.digest == ref.digest, "run at -j%d: points differ from the -j1 run", b.workers)
			b.tally.check(o.report == ref.report, "run at -j%d: report differs from the -j1 run", b.workers)
			b.checkRun(o)
		}
	}
	if reset {
		if mib, ok := peakRSSMiB(); ok {
			m["peak_rss_mb"] = stat{Value: mib, Unit: "MiB"}
		}
	}
	if len(secs) > 0 {
		m["run_s"] = distribution(secs, "s")
		m["points_per_s"] = distribution(rates, "points/s")
	}
	if stamps != nil {
		after, err := snapshot(b.seedDir)
		if b.tallyOp(err, "snapshotting the warm store") {
			b.tally.check(sameStamps(stamps, after), "store-warm runs rewrote store records")
		}
	}
}

// coldRuns caps store-cold's runs per phase. Each run writes about
// 2,000 record files, and on ext4 a disk that has just created and
// deleted tens of thousands of files creates new ones up to 30x slower
// for minutes: an uncapped store-cold would mostly measure the churn of
// the runs before it.
const coldRuns = 12

// again reports whether a measuring loop that has made n runs since
// start makes another: at least one, and more until the time is up or a
// cold-store workload reaches its cap.
func (b *bench) again(n int, start time.Time, seconds float64, cap int) bool {
	switch {
	case n == 0:
		return true
	case b.w.store == coldStore && n >= cap:
		return false
	}
	return now().Sub(start).Seconds() < seconds
}

// checkRun applies the per-run checks of the workload.
func (b *bench) checkRun(o *runOut) {
	if b.w.store == coldStore {
		// Every estimate the run computed must have been written back: a
		// failed write-back is otherwise silent.
		want := len(b.shelf)
		for _, r := range o.results {
			want += len(r.Points)
		}
		entries, err := os.ReadDir(o.dir)
		if b.tallyOp(err, "listing the cold store") {
			b.tally.check(len(entries) == want, "cold store holds %d records, want %d", len(entries), want)
		}
	}
	for i, r := range o.results {
		if max := b.jobs[i].opts.Budget.MaxEvals; max > 0 {
			b.tally.check(r.Evals <= max, "%s charged %d evaluations over a budget of %d", r.Strategy, r.Evals, max)
		}
	}
}

// resetPeakRSS returns freed memory to the OS and resets the kernel's
// peak-RSS mark, so VmHWM covers only what follows.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB reads VmHWM.
func peakRSSMiB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err == nil && kb > 0
		}
	}
	return 0, false
}

func sameStamps(a, b map[string]fileStamp) bool {
	if len(a) != len(b) {
		return false
	}
	for _, name := range sortedKeys(a) {
		if a[name] != b[name] {
			return false
		}
	}
	return true
}

// distribution summarises repeated measurements by their median.
func distribution(xs []float64, unit string) stat {
	s := stat{Value: median(xs), Unit: unit, N: len(xs)}
	s.Q1, s.Q3 = quartiles(xs)
	if n := len(xs); n > 10 {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		k := n - 10
		s.Tail, s.TailPct = sorted[k-1], 100*float64(k)/float64(n)
	}
	return s
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianIndex returns the index of a median element (the lower one for
// an even count).
func medianIndex(xs []float64) int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx[(len(idx)-1)/2]
}

// quartiles are the first and third quartiles by the method of Python's
// statistics.quantiles(xs, n=4) (exclusive).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printResult prints a workload's metrics, one per line, and its failures.
func printResult(w io.Writer, r result) {
	for _, name := range sortedKeys(r.Metrics) {
		s := r.Metrics[name]
		fmt.Fprintf(w, "%-14s %-26s %-14.6g %s", r.Name, name, s.Value, s.Unit)
		if s.N > 0 {
			fmt.Fprintf(w, "  (n=%d q1=%.6g q3=%.6g)", s.N, s.Q1, s.Q3)
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%-14s FAILED %s\n", r.Name, f)
	}
	fmt.Fprintf(w, "%-14s correct=%v attempted=%d failed=%d\n", r.Name, r.Correct, r.Attempted, r.Failed)
}

// summaryLine is the closing JSON line. With one workload the metrics
// are keyed by name; with several, by workload/name.
func summaryLine(rs []result, defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range rs {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, d := range defs {
			s, ok := r.Metrics[d.name]
			if !ok {
				continue
			}
			key := d.name
			if len(rs) > 1 {
				key = r.Name + "/" + d.name
			}
			line.Metrics[key] = value{s.Value, s.Unit}
		}
	}
	data, err := json.Marshal(line)
	return string(data), err
}
