package tir

import (
	"fmt"
	"strings"
)

// String renders the module in TyTra-IR surface syntax. The output
// re-parses to an equivalent module: TestPrintParseRoundTrip and
// TestBuilderPrintParseRoundTrip (parser_test.go) check the round trip,
// as do kernels' TestGoldenIR and TestCorpus on every golden module.
func (m *Module) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; module %s\n", m.Name)
	if len(m.MemObjects) > 0 || len(m.Streams) > 0 {
		b.WriteString("; **** MANAGE-IR ****\n")
	}
	for _, mo := range m.MemObjects {
		fmt.Fprintf(&b, "%%%s = memobj %s, size %d, space %s, pattern %s",
			mo.Name, mo.Elem, mo.Size, mo.Space, mo.Pattern)
		if mo.Pattern == PatternStrided {
			fmt.Fprintf(&b, ", stride %d", mo.Stride)
		}
		b.WriteByte('\n')
	}
	for _, so := range m.Streams {
		dir := "in"
		if so.Dir == DirOut {
			dir = "out"
		}
		fmt.Fprintf(&b, "%%%s = strobj %%%s, dir %s, port %s\n", so.Name, so.Mem, dir, so.Port)
	}
	if len(m.Ports) > 0 || len(m.Funcs) > 0 {
		b.WriteString("; **** COMPUTE-IR ****\n")
	}
	for _, p := range m.Ports {
		fmt.Fprintf(&b, "@%s = addrSpace(%d) %s, !\"%s\", !\"%s\", !%d, !\"%s\"\n",
			p.Name, p.AddrSpace, p.Elem, p.Dir, p.Pattern, p.Stride, p.Stream)
	}
	for _, f := range m.Funcs {
		params := make([]string, len(f.Params))
		for i, p := range f.Params {
			params[i] = fmt.Sprintf("%s %%%s", p.Ty, p.Name)
		}
		fmt.Fprintf(&b, "define void @%s(%s)", f.Name, strings.Join(params, ", "))
		if f.Name != "main" || f.Mode != ModeSeq {
			fmt.Fprintf(&b, " %s", f.Mode)
		}
		b.WriteString(" {\n")
		for _, in := range f.Body {
			fmt.Fprintf(&b, "  %s\n", in)
		}
		b.WriteString("}\n")
	}
	return b.String()
}
