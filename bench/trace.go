package main

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/dse"
	"repro/internal/tir"
)

// now is the benchmark's one wall-clock read: run times, set-up times
// and every span go through it.
func now() time.Time { return time.Now() } //lint:allow notimenow

// span is one timed interval: a call the benchmark handed to the
// library (in situ), or one leaf layer re-run on the traced run's
// inputs (replay).
type span struct {
	name string
	// run is shared by the spans of one run (a set-up repetition, or a
	// traced run together with its replay).
	run int
	// parent is the index+1 of the enclosing span, 0 for a root.
	parent int
	start  time.Duration // since the tracer's epoch
	dur    time.Duration
	// calls is how many library calls the span covers: 1 in situ, the
	// whole layer for a replay span.
	calls int
}

// evalCall is one evaluator invocation of a traced run.
type evalCall struct {
	space   *dse.Space
	variant dse.Variant
	point   *dse.Point
}

// simInput is one simulation workload a traced run generated.
type simInput struct {
	m    *tir.Module
	seed int64
}

// tracer keeps spans in memory until the benchmark ends. It records
// from one goroutine only: traced runs use a single engine worker,
// whose evaluations run on the calling goroutine. A nil *tracer records
// nothing and its wrappers return the wrapped function unchanged.
type tracer struct {
	epoch time.Time
	run   int
	spans []span
	open  []int

	// What the current traced run touched, for its replay.
	calls []evalCall
	sims  []simInput
}

func newTracer() *tracer { return &tracer{epoch: now()} }

// newRun starts a new run id and forgets the previous run's inputs.
func (t *tracer) newRun() int {
	if t == nil {
		return 0
	}
	t.run++
	t.calls, t.sims = nil, nil
	return t.run
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1] + 1
	}
	t.spans = append(t.spans, span{name: name, run: t.run, parent: parent, start: now().Sub(t.epoch)})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the innermost open span, which begin returned as id.
func (t *tracer) end(id, calls int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.dur = now().Sub(t.epoch) - s.start
	s.calls = calls
	t.open = t.open[:len(t.open)-1]
}

// builder wraps the VariantBuilder handed to an evaluator.
func (t *tracer) builder(b dse.VariantBuilder) dse.VariantBuilder {
	if t == nil {
		return b
	}
	return func(lanes int) (*tir.Module, error) {
		id := t.begin("kernels.build")
		defer t.end(id, 1)
		return b(lanes)
	}
}

// evaluator wraps an Evaluator a constructor returned, remembering each
// call's point for the replay.
func (t *tracer) evaluator(e dse.Evaluator) dse.Evaluator {
	if t == nil {
		return e
	}
	return func(s *dse.Space, v dse.Variant) (*dse.Point, error) {
		id := t.begin("dse.eval")
		p, err := e(s, v)
		t.end(id, 1)
		if err == nil {
			t.calls = append(t.calls, evalCall{space: s, variant: v, point: p})
		}
		return p, err
	}
}

// simInputs wraps the simulation workload generator of SimConfig.Inputs.
func (t *tracer) simInputs(f func(*tir.Module, int64) (map[string][]int64, error)) func(*tir.Module, int64) (map[string][]int64, error) {
	if t == nil {
		return f
	}
	return func(m *tir.Module, seed int64) (map[string][]int64, error) {
		id := t.begin("dse.siminputs")
		defer t.end(id, 1)
		t.sims = append(t.sims, simInput{m: m, seed: seed})
		return f(m, seed)
	}
}

// sums returns the total duration in seconds and the covered calls of
// each span name in one run.
func (t *tracer) sums(run int) (secs map[string]float64, calls map[string]int) {
	secs, calls = map[string]float64{}, map[string]int{}
	for _, s := range t.spans {
		if s.run == run {
			secs[s.name] += s.dur.Seconds()
			calls[s.name] += s.calls
		}
	}
	return secs, calls
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	Run    int `json:"run"`
	Span   int `json:"span"`
	Parent int `json:"parent"`
	Calls  int `json:"calls"`
}

// writeChrome writes every recorded span as Chrome trace-event JSON.
// Span ids are index+1; a parent of 0 marks a root.
func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur.Nanoseconds()) / 1e3,
			Args: chromeArgs{Run: s.run, Span: i + 1, Parent: s.parent, Calls: s.calls},
		}
	}
	data, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
