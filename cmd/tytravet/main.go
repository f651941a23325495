// Command tytravet is the static verifier of the TyTra-IR front stage:
// it parses one or more .tirl files and reports every finding of the
// semantic checks (tir.Check), the deeper static passes (tir.Analyze)
// and elaboration (internal/elab: an instance count that overflows) with
// stable TIR0xx codes and source positions. With
// -target it additionally checks the static resource estimate against
// the device capacity (TIR090), so a design that cannot fit is rejected
// before any simulation or synthesis is attempted.
//
// Usage:
//
//	tytravet [-json] [-target stratix-v-gsd8] design.tirl...
//	tytravet -codes
//
// The exit status is 1 when any file has error-severity findings;
// warnings alone exit 0.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/diag"
	"repro/internal/elab"
	"repro/internal/tir"
	"repro/internal/verify"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tytravet:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run drives one invocation and returns the process exit code: 0 clean
// (possibly with warnings), 1 when any error-severity finding exists.
// A non-nil error is a usage or I/O failure, not a verification result.
func run(args []string, out, errOut io.Writer) (int, error) {
	fs := flag.NewFlagSet("tytravet", flag.ContinueOnError)
	fs.SetOutput(errOut)
	jsonOut := fs.Bool("json", false, "emit findings as one JSON document")
	targetName := fs.String("target", "", "also check device fit (TIR090) against this FPGA target")
	listCodes := fs.Bool("codes", false, "list every diagnostic code and exit")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *listCodes {
		for _, c := range tir.CodeTable {
			fmt.Fprintf(out, "%s  %s\n", c.Code, c.Desc)
		}
		return 0, nil
	}
	if fs.NArg() == 0 {
		return 0, fmt.Errorf("no input files (usage: tytravet [-json] [-target X] design.tirl...)")
	}

	// Target-dependent setup: calibrate the cost model once, reuse it
	// across every input.
	var (
		target *device.Target
		model  *costmodel.Model
	)
	if *targetName != "" {
		var err error
		if target, err = device.Lookup(*targetName); err != nil {
			return 0, err
		}
		if model, err = costmodel.Calibrate(target); err != nil {
			return 0, err
		}
	}

	var all diag.List
	for _, file := range fs.Args() {
		src, err := os.ReadFile(file)
		if err != nil {
			return 0, err
		}
		all.Add(check(file, string(src), model, target)...)
	}
	all.Sort()

	if *jsonOut {
		if err := all.WriteJSON(out); err != nil {
			return 0, err
		}
	} else {
		if err := all.WriteText(out); err != nil {
			return 0, err
		}
	}
	if all.HasErrors() {
		return 1, nil
	}
	return 0, nil
}

// check verifies one input: parse, then elaboration — the full static
// analysis, the call graph and the datapath schedules every back end
// reads — then, when a target is given and the design elaborated,
// device fit.
func check(file, src string, model *costmodel.Model, target *device.Target) diag.List {
	m, err := tir.ParseOnly(file, src)
	if err != nil {
		return diag.AsList(err, tir.CodeSyntax)
	}
	d, err := elab.Elaborate(m)
	if err != nil {
		return diag.AsList(err, tir.CodeInstanceBound)
	}
	l := d.Warnings()
	if target != nil {
		l.Add(verify.DeviceFitModel(d, model, target)...)
	}
	return l
}
