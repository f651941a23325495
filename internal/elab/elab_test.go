package elab

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/tir"
)

// chainSrc is a module of k functions: @main and k-2 further seq
// functions, each calling the next twice, down to the pipe @f0, which
// so has 2^(k-1) instances.
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
		name := fmt.Sprintf("s%d", i)
		if i == k-1 {
			name = "main"
		}
		fmt.Fprintf(&b, "define void @%s() seq {\n  %s\n  %s\n}\n", name, call, call)
		call = "call @" + name + "() seq"
	}
	return b.String()
}

// pathCounts is the brute-force reference for the multiplicities: it
// walks every call path from @main, one visit per instance.
func pathCounts(m *tir.Module) map[*tir.Function]int64 {
	counts := map[*tir.Function]int64{}
	var walk func(f *tir.Function)
	walk = func(f *tir.Function) {
		counts[f]++
		for _, c := range f.Calls() {
			walk(m.Func(c.Callee))
		}
	}
	walk(m.Main())
	return counts
}

// TestMultiplicitiesMatchPathCount checks every reachable function's
// multiplicity, and the design's instance count, against the path
// count on the IR corpus, the kernel goldens and chains up to k = 12.
func TestMultiplicitiesMatchPathCount(t *testing.T) {
	srcs := map[string]string{}
	for _, pattern := range []string{
		filepath.Join("..", "tir", "testdata", "*.tirl"),
		filepath.Join("..", "kernels", "testdata", "*.tirl"),
	} {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no designs match %s (%v)", pattern, err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			srcs[p] = string(src)
		}
	}
	for k := 2; k <= 12; k++ {
		srcs[fmt.Sprintf("chain-%d", k)] = chainSrc(k)
	}
	for name, src := range srcs {
		m, err := tir.Parse(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d, err := Elaborate(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := pathCounts(m)
		var total int64
		for _, f := range m.Funcs {
			var got int64
			if n := d.Node(f); n != nil {
				got = n.Mult
			}
			if got != want[f] {
				t.Errorf("%s: @%s has multiplicity %d, %d call paths", name, f.Name, got, want[f])
			}
			total += want[f]
		}
		if d.Instances() != total {
			t.Errorf("%s: %d instances, %d call paths", name, d.Instances(), total)
		}
		if n := len(d.Nodes()); n != len(want) {
			t.Errorf("%s: %d nodes, %d reachable functions", name, n, len(want))
		}
	}
}

// TestSharedCallees elaborates designs that reach a callee through
// several call sites: one node per function, its call sites resolved
// to the shared callee node, and the multiplicity, lanes and
// configuration a per-path expansion would give.
func TestSharedCallees(t *testing.T) {
	cases := []struct {
		name, src, want string
		lanes           int
		config          tir.Config
	}{
		{"par-coarse", `define void @fa() pipe { ui8 %x = const ui8 1 }
			define void @ftop() pipe { call @fa() pipe }
			define void @f1() par { call @ftop() pipe
			call @ftop() pipe
			call @ftop() pipe }
			define void @main() { call @f1() par }`,
			"fa*3 ftop*3(fa) f1*1(ftop ftop ftop) main*1(f1)", 3, tir.ConfigParCoarse},
		{"seq-twice", `define void @fa() pipe { ui8 %x = const ui8 1 }
			define void @fb() pipe { ui8 %y = const ui8 2 }
			define void @ftop() pipe { call @fa() pipe
			call @fb() pipe }
			define void @main() { call @ftop() pipe
			call @ftop() pipe }`,
			"fa*2 fb*2 ftop*2(fa fb) main*1(ftop ftop)", 1, tir.ConfigSeq},
	}
	for _, c := range cases {
		m, err := tir.Parse(c.name, c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		d, err := Elaborate(m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var parts []string
		for i := range d.Nodes() {
			n := &d.Nodes()[i]
			s := fmt.Sprintf("%s*%d", n.Func.Name, n.Mult)
			if len(n.Calls) > 0 {
				callees := make([]string, len(n.Calls))
				for k, call := range n.Calls {
					if call.Callee != d.Node(m.Func(call.Site.Callee)) {
						t.Errorf("%s: call @%s does not resolve to its callee's node", c.name, call.Site.Callee)
					}
					callees[k] = call.Callee.Func.Name
				}
				s += "(" + strings.Join(callees, " ") + ")"
			}
			if (n.Sched != nil) != (n.Func.Mode == tir.ModePipe || n.Func.Mode == tir.ModeComb) {
				t.Errorf("%s: @%s (%s) has schedule %v", c.name, n.Func.Name, n.Func.Mode, n.Sched)
			}
			parts = append(parts, s)
		}
		if got := strings.Join(parts, " "); got != c.want {
			t.Errorf("%s: design %s, want %s", c.name, got, c.want)
		}
		if d.Lanes() != c.lanes || d.Config() != c.config {
			t.Errorf("%s: %d lanes, %v; want %d, %v", c.name, d.Lanes(), d.Config(), c.lanes, c.config)
		}
		if d.Root().Func != m.Main() {
			t.Errorf("%s: root is @%s", c.name, d.Root().Func.Name)
		}
	}
}

// TestInstanceBound: the instance count decides CheckBound, and a count
// that overflows an int64 is an elaboration error with the same code.
func TestInstanceBound(t *testing.T) {
	elaborate := func(k int) (*Design, error) {
		t.Helper()
		m, err := tir.Parse("chain", chainSrc(k))
		if err != nil {
			t.Fatal(err)
		}
		return Elaborate(m)
	}
	code := func(err error) string {
		if l := diag.AsList(err, ""); len(l) > 0 {
			return l[len(l)-1].Code
		}
		return ""
	}
	// A chain of k functions has 2^k - 1 instances.
	for k, ok := range map[int]bool{10: true, 11: false, 63: false} {
		d, err := elaborate(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if want := int64(1)<<k - 1; d.Instances() != want {
			t.Errorf("k=%d: %d instances, want %d", k, d.Instances(), want)
		}
		if err := d.CheckBound(); (err == nil) != ok || (err != nil && code(err) != tir.CodeInstanceBound) {
			t.Errorf("k=%d (%d instances): CheckBound = %v", k, d.Instances(), err)
		}
	}
	if d, err := elaborate(64); d != nil || code(err) != tir.CodeInstanceBound {
		t.Errorf("k=64: got %v, want a %s overflow error", err, tir.CodeInstanceBound)
	}
}
