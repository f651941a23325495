package perf

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/membw"
	"repro/internal/tir"
)

var update = flag.Bool("update", false, "rewrite the golden Params file")

// goldenParams renders a Params value one field per name=value pair,
// floats as their Float64bits, so a golden diff catches any bit that
// moves.
func goldenParams(p Params) string {
	var b strings.Builder
	v := reflect.ValueOf(p)
	for i := 0; i < v.NumField(); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		f := v.Field(i)
		b.WriteString(v.Type().Field(i).Name)
		b.WriteByte('=')
		switch f.Kind() {
		case reflect.Float64:
			fmt.Fprintf(&b, "%016x", math.Float64bits(f.Float()))
		default:
			fmt.Fprint(&b, f.Interface())
		}
	}
	return b.String()
}

// goldenKernels are the four kernel families at the sizes the DSE
// tests explore, each with its lane-parameterised builder.
var goldenKernels = []struct {
	name string
	spec func(lanes int) kernels.Spec
}{
	{"sor", func(l int) kernels.Spec { return kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: l} }},
	{"hotspot", func(l int) kernels.Spec { return kernels.HotspotSpec{Rows: 24, Cols: 31, Lanes: l} }},
	{"lavamd", func(l int) kernels.Spec { return kernels.LavaMDSpec{Pairs: 720, Lanes: l} }},
	{"srad", func(l int) kernels.Spec { return kernels.SRADSpec{Rows: 24, Cols: 19, Lanes: l} }},
}

// goldenExtractErrors builds the six inputs Extract rejects, each from
// a fresh 1-lane sor module, and renders the error each one returns.
func goldenExtractErrors(t *testing.T, mdl *costmodel.Model, bw *membw.Model) []string {
	t.Helper()
	build := func(dv int, mutate func(m *tir.Module)) *costmodel.Estimate {
		t.Helper()
		m, err := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 1}.Module()
		if err != nil {
			t.Fatal(err)
		}
		est, err := mdl.EstimateVectorised(elaborate(t, m), dv)
		if err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(m)
		}
		return est
	}
	cases := []struct {
		name string
		est  *costmodel.Estimate
		w    Workload
	}{
		{"bad-nki", build(1, nil), Workload{NKI: 0}},
		{"dv-contradiction", build(4, nil), Workload{NKI: 10, DV: 2}},
		{"port-without-stream", build(1, func(m *tir.Module) { m.Ports[0].Stream = "missing" }), Workload{NKI: 10}},
		{"stream-without-memory", build(1, func(m *tir.Module) { m.Streams[0].Mem = "missing" }), Workload{NKI: 10}},
		{"no-sustained-bandwidth", build(1, func(m *tir.Module) { m.MemObjects[0].Size = 0 }), Workload{NKI: 10}},
		{"no-streams", build(1, func(m *tir.Module) { m.Ports = nil }), Workload{NKI: 10}},
	}
	var out []string
	for _, c := range cases {
		_, err := Extract(c.est, bw, c.w)
		if err == nil {
			t.Fatalf("%s: Extract accepted", c.name)
		}
		out = append(out, fmt.Sprintf("error %s: %v", c.name, err))
	}
	return out
}

// TestParamsGolden pins Extract's Table I parameters bit for bit: sor,
// hotspot, lavamd and srad at every divisor lane count up to 16, dv 1,
// 2, 4 and 16, on the three shelf devices, and the error each of six
// malformed inputs returns. Regenerate intentionally with
//
//	go test ./internal/perf -run TestParamsGolden -update
func TestParamsGolden(t *testing.T) {
	var lines []string
	for i, name := range []string{"stratix-v-gsd8-edu", "stratix-v-gsd8", "virtex-7-690t"} {
		tgt, err := device.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		mdl, err := costmodel.Calibrate(tgt)
		if err != nil {
			t.Fatal(err)
		}
		bw, err := membw.Build(tgt)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range goldenKernels {
			ngs := k.spec(1).GlobalSize()
			for lanes := 1; lanes <= 16; lanes++ {
				if ngs%int64(lanes) != 0 {
					continue
				}
				m, err := k.spec(lanes).Module()
				if err != nil {
					t.Fatal(err)
				}
				for _, dv := range []int{1, 2, 4, 16} {
					prefix := fmt.Sprintf("%s %s lanes=%d dv=%d:", name, k.name, lanes, dv)
					est, err := mdl.EstimateVectorised(elaborate(t, m), dv)
					if err != nil {
						lines = append(lines, fmt.Sprintf("%s estimate error: %v", prefix, err))
						continue
					}
					par, err := Extract(est, bw, Workload{NKI: 10})
					if err != nil {
						lines = append(lines, fmt.Sprintf("%s %v", prefix, err))
						continue
					}
					lines = append(lines, prefix+" "+goldenParams(par))
				}
			}
		}
		if i == 0 {
			lines = append(lines, goldenExtractErrors(t, mdl, bw)...)
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "params.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(want) != got {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("Params golden drift at line %d:\n got %s\nwant %s\n(run with -update if intentional)", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("Params golden drift: %d lines, want %d (run with -update if intentional)", len(gl), len(wl))
	}
}
