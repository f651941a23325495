// Command tytralint runs the repository's custom determinism and
// hygiene analyzers (internal/lint) over Go packages as a go vet tool:
//
//	go build -o /tmp/tytralint ./cmd/tytralint
//	go vet -vettool=/tmp/tytralint ./...
//
// The go command probes `-V=full` and `-flags`, then invokes the tool
// once per package with a single vet.cfg argument describing the files
// and export data. Every analyzer of lint.All runs; findings go to
// stderr and the exit status is 2, matching golang.org/x/tools'
// unitchecker contract. Any other invocation prints this usage and
// exits 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("tytralint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	version := fs.String("V", "", "print version and exit (go vet protocol)")
	printFlags := fs.Bool("flags", false, "print analyzer flags as JSON (go vet protocol)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version != "" {
		// The go command caches vet results keyed on this line.
		fmt.Fprintln(out, "tytralint version 1 stdlib")
		return 0
	}
	if *printFlags {
		fmt.Fprintln(out, "[]")
		return 0
	}
	if rest := fs.Args(); len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runVetCfg(rest[0], errOut)
	}
	fmt.Fprintln(errOut, "usage: go vet -vettool=$(which tytralint) [packages]")
	return 2
}

// vetConfig is the JSON the go command writes for each package when the
// tool is used via -vettool. Field set mirrors unitchecker.Config.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetCfg handles one `go vet` unit of work.
func runVetCfg(cfgPath string, errOut io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(errOut, "tytralint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(errOut, "tytralint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// We compute no facts, but go vet demands the output file exist.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(errOut, "tytralint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(errOut, "tytralint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	compilerImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if path == "unsafe" {
				return types.Unsafe, nil
			}
			return compilerImp.Import(path)
		}),
	}
	info := newInfo()
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(errOut, "tytralint: %v\n", err)
		return 1
	}

	findings, err := lint.Run(fset, files, pkg, info, lint.All())
	if err != nil {
		fmt.Fprintf(errOut, "tytralint: %v\n", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintf(errOut, "%s: %s\n", f.Pos, f.Message)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// importerFunc adapts a closure to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}
