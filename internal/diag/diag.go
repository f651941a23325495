// Package diag provides the structured diagnostics the static
// verification layer is built on: a Diagnostic carries a stable code, a
// source position, a severity and a message; a List collects every
// finding of a verification pass instead of bailing at the first, and
// renders as text (one finding per line, sorted by position) or JSON
// (for tooling).
//
// The package is deliberately free of repository dependencies so the IR
// front stage (internal/tir), the verifier driver (cmd/tytravet) and
// any future pass can share one diagnostic currency.
package diag

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Severity ranks a finding. Errors make the input illegal (a verifier
// exits non-zero); warnings flag constructs that are legal but will
// degrade or fail downstream (a design that cannot batch, a datapath
// only the cost model can evaluate).
type Severity int

const (
	// Error findings make the module invalid.
	Error Severity = iota
	// Warning findings are legal but suspicious or degrading.
	Warning
)

// String renders the severity keyword used in text output.
func (s Severity) String() string {
	if s == Warning {
		return "warning"
	}
	return "error"
}

// MarshalJSON renders the keyword, not the internal integer, so the
// JSON stream is self-describing and stable across reorderings of the
// constants.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the keyword form written by MarshalJSON.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var kw string
	if err := json.Unmarshal(b, &kw); err != nil {
		return err
	}
	switch kw {
	case "error":
		*s = Error
	case "warning":
		*s = Warning
	default:
		return fmt.Errorf("diag: unknown severity %q", kw)
	}
	return nil
}

// Pos is a source position. File is the input name ("" for modules
// built programmatically); Line and Col are 1-based, 0 meaning
// unknown.
type Pos struct {
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
	Col  int    `json:"col,omitempty"`
}

// String renders "file:line:col", omitting the file when unknown, or
// "file" / "" when no line information exists.
func (p Pos) String() string {
	switch {
	case p.Line > 0 && p.File != "":
		return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
	case p.Line > 0:
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	default:
		return p.File
	}
}

// Diagnostic is one finding: a stable machine-readable code, where it
// is, how bad it is, and the human-readable message.
type Diagnostic struct {
	Code     string   `json:"code"`
	Pos      Pos      `json:"pos"`
	Severity Severity `json:"severity"`
	Msg      string   `json:"msg"`
}

// Error implements error so a single Diagnostic can flow through
// error-returning call chains.
func (d Diagnostic) Error() string {
	if s := d.Pos.String(); s != "" {
		return fmt.Sprintf("%s: %s %s: %s", s, d.Severity, d.Code, d.Msg)
	}
	return fmt.Sprintf("%s %s: %s", d.Severity, d.Code, d.Msg)
}

// New constructs a Diagnostic.
func New(sev Severity, code string, pos Pos, format string, args ...any) Diagnostic {
	return Diagnostic{Code: code, Pos: pos, Severity: sev, Msg: fmt.Sprintf(format, args...)}
}

// List is an ordered collection of findings. A nil or empty List means
// the input is clean. List implements error: callers that only know
// `err != nil` see every finding, one per line.
type List []Diagnostic

// Errorf appends an error finding.
func (l *List) Errorf(code string, pos Pos, format string, args ...any) {
	*l = append(*l, New(Error, code, pos, format, args...))
}

// Warnf appends a warning finding.
func (l *List) Warnf(code string, pos Pos, format string, args ...any) {
	*l = append(*l, New(Warning, code, pos, format, args...))
}

// Add appends pre-built diagnostics.
func (l *List) Add(ds ...Diagnostic) { *l = append(*l, ds...) }

// HasErrors reports whether any finding is an Error.
func (l List) HasErrors() bool {
	for _, d := range l {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// ErrOrNil returns the list as an error when it contains at least one
// error-severity finding, and nil otherwise (warnings alone do not make
// the input invalid). This is the standard way a validation entry point
// converts its collected findings into its error result.
func (l List) ErrOrNil() error {
	if l.HasErrors() {
		return l
	}
	return nil
}

// Error renders every finding, one per line, so the List can travel as
// a plain error without losing the non-first findings.
func (l List) Error() string {
	lines := make([]string, len(l))
	for i, d := range l {
		lines[i] = d.Error()
	}
	return strings.Join(lines, "\n")
}

// Sort orders findings by file, line, column, code and finally message,
// making output stable regardless of pass execution order.
func (l List) Sort() {
	sort.SliceStable(l, func(i, j int) bool {
		a, b := l[i], l[j]
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
}

// WriteText renders the findings one per line to w, in list order.
func (l List) WriteText(w io.Writer) error {
	for _, d := range l {
		if _, err := fmt.Fprintln(w, d.Error()); err != nil {
			return err
		}
	}
	return nil
}

// jsonReport is the envelope WriteJSON emits: the findings plus the
// summary counts a CI gate wants without re-scanning.
type jsonReport struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
	Errors      int          `json:"errors"`
	Warnings    int          `json:"warnings"`
}

// WriteJSON renders the findings as one indented JSON document.
func (l List) WriteJSON(w io.Writer) error {
	rep := jsonReport{Diagnostics: l}
	if rep.Diagnostics == nil {
		rep.Diagnostics = List{}
	}
	for _, d := range l {
		if d.Severity == Error {
			rep.Errors++
		} else {
			rep.Warnings++
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// AsList extracts the diagnostics from an error produced by this
// package: a List comes back as-is, a single Diagnostic is wrapped, and
// any other non-nil error becomes a position-less error finding with
// the given fallback code. A nil error yields a nil list.
func AsList(err error, fallbackCode string) List {
	switch e := err.(type) {
	case nil:
		return nil
	case List:
		return e
	case Diagnostic:
		return List{e}
	default:
		return List{New(Error, fallbackCode, Pos{}, "%s", err.Error())}
	}
}
