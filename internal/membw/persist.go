package membw

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/device"
	"repro/internal/memsim"
	"repro/internal/tir"
)

// The bandwidth benchmark is the slow part of per-target calibration
// (Fig 2's one-time experiments). SaveTable/LoadModel are the
// evaluation store's models record (internal/evalstore), which
// tytradse -cache and tytracc -cache read: a warm run rebuilds the
// interpolating model from the archived table without re-running the
// sweep — the workflow the paper implies ("a one-time set of
// benchmark experiments ... for each FPGA target").

// SaveTable writes the benchmark table in a line-oriented text format:
//
//	tytra-membw 1 <target-name>
//	<dim> <pattern> <bytes> <seconds> <steady-seconds>
//
// Seconds are emitted as shortest-roundtrip floats: a Save → Load cycle
// reproduces every float64 bit-exactly, which the persistent evalstore
// depends on for its warm-run == cold-run determinism gate. (Earlier
// versions wrote %.12e, which silently dropped low-order bits; LoadModel
// still reads such files — they simply carry less precision.)
func (m *Model) SaveTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "tytra-membw 1 %s\n", m.Target.Name); err != nil {
		return err
	}
	for _, s := range m.Table {
		if _, err := fmt.Fprintf(w, "%d %s %d %s %s\n",
			s.Dim, s.Pattern, s.Bytes,
			strconv.FormatFloat(s.Seconds, 'g', -1, 64),
			strconv.FormatFloat(s.SteadySeconds, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}

// LoadModel rebuilds a Model from a saved table. The target description
// must be supplied (the file carries only the name, which is verified).
func LoadModel(t *device.Target, r io.Reader) (*Model, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("membw: empty calibration file")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 3 || header[0] != "tytra-membw" {
		return nil, fmt.Errorf("membw: not a calibration file (header %q)", sc.Text())
	}
	if header[1] != "1" {
		return nil, fmt.Errorf("membw: unsupported calibration version %q", header[1])
	}
	if header[2] != t.Name {
		return nil, fmt.Errorf("membw: calibration is for target %q, not %q", header[2], t.Name)
	}

	link, err := memsim.NewLink(t.Link)
	if err != nil {
		return nil, err
	}
	m := &Model{Target: t, link: link}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		f := strings.Fields(text)
		if len(f) != 5 {
			return nil, fmt.Errorf("membw: line %d: want 5 fields, got %d", line, len(f))
		}
		dim, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("membw: line %d: dim: %w", line, err)
		}
		pat, err := tir.ParseAccessPattern(f[1])
		if err != nil {
			return nil, fmt.Errorf("membw: line %d: %w", line, err)
		}
		bytes, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("membw: line %d: bytes: %w", line, err)
		}
		secs, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return nil, fmt.Errorf("membw: line %d: seconds: %w", line, err)
		}
		steady, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			return nil, fmt.Errorf("membw: line %d: steady: %w", line, err)
		}
		// strconv.ParseFloat happily parses "NaN" and "±Inf", and NaN in
		// particular slips through a plain <= 0 guard (it fails every
		// comparison), so non-finite values must be rejected explicitly —
		// one poisoned sample would propagate through the interpolator
		// into every bandwidth prediction.
		if math.IsNaN(secs) || math.IsInf(secs, 0) {
			return nil, fmt.Errorf("membw: line %d: non-finite seconds %v", line, secs)
		}
		if math.IsNaN(steady) || math.IsInf(steady, 0) {
			return nil, fmt.Errorf("membw: line %d: non-finite steady-seconds %v", line, steady)
		}
		if bytes <= 0 || secs <= 0 || steady <= 0 {
			return nil, fmt.Errorf("membw: line %d: non-positive measurement", line)
		}
		m.Table = append(m.Table, Sample{
			Dim: dim, Pattern: pat, Bytes: bytes,
			Seconds: secs, Sustained: float64(bytes) / secs,
			SteadySeconds: steady, SteadySustained: float64(bytes) / steady,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	m.fillCurves()
	if len(m.contig.bytes) < 2 || len(m.strided.bytes) < 2 {
		return nil, fmt.Errorf("membw: calibration file has too few samples (%d contiguous, %d strided)",
			len(m.contig.bytes), len(m.strided.bytes))
	}
	// The interpolators assume ascending sizes.
	for _, c := range []curve{m.contig, m.strided} {
		for i := 1; i < len(c.bytes); i++ {
			if c.bytes[i] <= c.bytes[i-1] {
				return nil, fmt.Errorf("membw: calibration samples not in ascending size order")
			}
		}
	}
	return m, nil
}
