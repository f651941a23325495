package pipesim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/elab"
	"repro/internal/tir"
)

// elaborate elaborates m, failing the test when elaboration rejects it.
func elaborate(tb testing.TB, m *tir.Module) *elab.Design {
	tb.Helper()
	d, err := elab.Elaborate(m)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// chainSrc is a module of k functions: the seq @main and k-2 coarse
// pipelines (pipe functions without streams), each calling the next
// twice, down to the pipe kernel @f0, which so has 2^(k-1) instances.
func chainSrc(k int) string {
	var b strings.Builder
	b.WriteString(`%mem_a = memobj ui16, size 64, space global, pattern CONT
%mem_b = memobj ui16, size 64, space global, pattern CONT
%str_a = strobj %mem_a, dir in, port main.a
%str_b = strobj %mem_b, dir out, port main.b
@main.a = addrSpace(12) ui16, !"istream", !"CONT", !0, !"str_a"
@main.b = addrSpace(12) ui16, !"ostream", !"CONT", !0, !"str_b"
define void @f0(ui16 %a, ui16 %b) pipe {
  ui16 %x = add ui16 %a, 1
  out ui16 %b, %x
}
`)
	call := "call @f0(@main.a, @main.b) pipe"
	for i := 1; i < k; i++ {
		name, mode := fmt.Sprintf("s%d", i), "pipe"
		if i == k-1 {
			name, mode = "main", "seq"
		}
		fmt.Fprintf(&b, "define void @%s() %s {\n  %s\n  %s\n}\n", name, mode, call, call)
		call = "call @" + name + "() pipe"
	}
	return b.String()
}
