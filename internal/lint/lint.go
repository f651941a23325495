// Package lint is a self-contained static-analysis framework in the
// shape of golang.org/x/tools/go/analysis, built only on the standard
// library's go/ast, go/types and go/importer: the repository vendors no
// dependencies, so the vettool driver (cmd/tytralint) cannot use the
// x/tools plumbing and implements the same contract by hand.
//
// Each Analyzer encodes one repository invariant that ordinary go vet
// cannot know about — determinism of reported results, measurement
// hygiene. Analyzers run per package over type-checked syntax and
// report positioned findings; a finding is suppressed by a
// `//lint:allow <analyzer>` comment on the same line or the line above,
// which is the escape hatch for the few deliberate violations (for
// example the wall-clock reads inside the benchmark harness).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name is the identifier used in findings, -run filters and
	// //lint:allow suppressions.
	Name string
	// Doc is the one-line description shown by `tytralint help`.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one package, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	findings []Finding
}

// Finding is one reported problem.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the vet-style "file:line:col: message [analyzer]" line.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over one type-checked package and returns
// the surviving findings sorted by position. Suppressed findings
// (`//lint:allow name` on the finding's line or the line above) are
// dropped here so every driver shares the same escape hatch.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Finding, error) {
	allowed := collectAllows(fset, files)
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, f := range pass.findings {
			if allowed[allowKey{f.Pos.Filename, f.Pos.Line, a.Name}] ||
				allowed[allowKey{f.Pos.Filename, f.Pos.Line - 1, a.Name}] {
				continue
			}
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// allowKey addresses one suppression: this analyzer is waived on this
// line of this file.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// collectAllows scans comments for `//lint:allow name1,name2` markers.
func collectAllows(fset *token.FileSet, files []*ast.File) map[allowKey]bool {
	allowed := map[allowKey]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, name := range strings.Split(text, ",") {
					name = strings.TrimSpace(name)
					if name != "" {
						allowed[allowKey{pos.Filename, pos.Line, name}] = true
					}
				}
			}
		}
	}
	return allowed
}

// All returns every analyzer the tytralint driver runs, in a stable
// order.
func All() []*Analyzer {
	return []*Analyzer{NoRandGlobal, SortedRange, NoTimeNow}
}

// isTestFile reports whether pos lies in a _test.go file; analyzers
// whose invariants only bind production code use it to skip tests.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// importedPkg resolves a selector qualifier to the package it names, or
// nil when the expression is not a package reference.
func importedPkg(info *types.Info, expr ast.Expr) *types.Package {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return nil
	}
	return pn.Imported()
}
