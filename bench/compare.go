package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

// benchmarkDef is the part of BENCHMARK.json -compare reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// gate is one compared metric with its bound.
type gate struct {
	name, unit string
	lower      bool
	bound      float64
}

// compare prints, for every workload and end-to-end metric, side B's
// median against side A's with the metric's bound, and reports whether B
// regressed. Each side is a comma-separated list of result files: with
// several, the spread is that of the per-file values; with one, the
// file's own quartiles. A metric whose spread on either side exceeds
// its bound is unresolved, unless every value of B beats every value of
// A.
func compare(benchPath, sideA, sideB string, out io.Writer) (bool, error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	var gates []gate
	for _, m := range def.EndToEnd {
		gates = append(gates, gate{m.Name, m.Unit, m.Better == "lower", m.Bound})
	}
	for _, m := range gatedExtra {
		gates = append(gates, gate{m.name, m.unit, true, 0})
	}
	a, err := loadSide(sideA)
	if err != nil {
		return false, err
	}
	b, err := loadSide(sideB)
	if err != nil {
		return false, err
	}

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA\tB\tdelta\tbound\tspread A\tspread B\tverdict")
	regressed := false
	for _, w := range def.Workloads {
		for _, g := range gates {
			va, vb := a.values(w.Name, g.name), b.values(w.Name, g.name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t\t\t\t\t\t\tMISSING\n", w.Name, g.name, g.unit)
				regressed = true
				continue
			}
			ma, mb := median(va), median(vb)
			sa, sb := a.spread(w.Name, g.name), b.spread(w.Name, g.name)
			worse := relDelta(ma, mb)
			if !g.lower {
				worse = -worse
			}
			verdict := "same"
			switch {
			case (sa > g.bound || sb > g.bound) && !dominates(vb, va, g.lower):
				verdict = "unresolved"
			case worse > g.bound:
				verdict = "REGRESSION"
				regressed = true
			case -worse > g.bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%.2f%%\t%.2f%%\t%s\n",
				w.Name, g.name, g.unit, ma, mb, 100*relDelta(ma, mb), 100*g.bound, 100*sa, 100*sb, verdict)
		}
	}
	return regressed, tw.Flush()
}

// side is one set of result files.
type side []resultFile

func loadSide(list string) (side, error) {
	var s side
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s = append(s, f)
	}
	return s, nil
}

func (s side) stats(workload, metric string) []stat {
	var out []stat
	for _, f := range s {
		for _, r := range f.Workloads {
			if st, ok := r.Metrics[metric]; ok && r.Name == workload {
				out = append(out, st)
			}
		}
	}
	return out
}

func (s side) values(workload, metric string) []float64 {
	var out []float64
	for _, st := range s.stats(workload, metric) {
		out = append(out, st.Value)
	}
	return out
}

// spread is the distance between the quartiles as a share of the
// median: across files, or within the one file's repetitions.
func (s side) spread(workload, metric string) float64 {
	sts := s.stats(workload, metric)
	if len(sts) == 1 {
		if sts[0].N < 2 || sts[0].Value == 0 {
			return 0
		}
		return (sts[0].Q3 - sts[0].Q1) / sts[0].Value
	}
	vals := s.values(workload, metric)
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / m
}

// relDelta is (b - a) / a, with a change from 0 counted as infinite.
func relDelta(a, b float64) float64 {
	switch {
	case a == b:
		return 0
	case a == 0:
		return math.Inf(1) * math.Copysign(1, b)
	}
	return (b - a) / a
}

// dominates reports whether every value of b beats every value of a.
func dominates(b, a []float64, lower bool) bool {
	for _, x := range b {
		for _, y := range a {
			if (lower && x >= y) || (!lower && x <= y) {
				return false
			}
		}
	}
	return true
}
