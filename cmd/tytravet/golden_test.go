package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden tytravet outputs")

// TestRunGolden pins tytravet's whole output and exit code, as text and
// as -json, on the good and the bad corpus and, against a device, on
// the kernel goldens; each case writes testdata/golden/<case>.out, its
// first line the exit code. Regenerate intentionally with
//
//	go test ./cmd/tytravet -run TestRunGolden -update
func TestRunGolden(t *testing.T) {
	glob := func(pattern string) []string {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("no files match %s (%v)", pattern, err)
		}
		return files
	}
	good := glob("../../internal/tir/testdata/*.tirl")
	bad := glob(filepath.Join(badDir, "*.tirl"))
	kernelDesigns := glob("../../internal/kernels/testdata/*.tirl")
	cases := []struct {
		name string
		args []string
	}{
		{"good", good},
		{"good-json", append([]string{"-json"}, good...)},
		{"bad", bad},
		{"bad-json", append([]string{"-json"}, bad...)},
		{"kernels-target", append([]string{"-target", "stratix-v-gsd8"}, kernelDesigns...)},
		{"kernels-target-json", append([]string{"-json", "-target", "stratix-v-gsd8"}, kernelDesigns...)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut strings.Builder
			code, err := run(c.args, &out, &errOut)
			if err != nil {
				t.Fatalf("tytravet %s: %v", strings.Join(c.args, " "), err)
			}
			got := fmt.Sprintf("exit %d\n%s", code, out.String())
			path := filepath.Join("testdata", "golden", c.name+".out")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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
			if got != string(want) {
				t.Errorf("tytravet %s: output drifted from %s; run with -update if intentional\n--- want\n%s\n--- got\n%s",
					strings.Join(c.args, " "), path, want, got)
			}
		})
	}
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

// TestRunDeepChain: on a chain of 40 functions (2^39 instances of the
// leaf) the device-fit check prices every instance without expanding
// one, so the design is reported not to fit (TIR090); without a target
// the chain is clean. At 64 functions the instance count overflows an
// int64, which elaboration reports (TIR060).
func TestRunDeepChain(t *testing.T) {
	dir := t.TempDir()
	write := func(k int) string {
		path := filepath.Join(dir, fmt.Sprintf("chain%d.tirl", k))
		if err := os.WriteFile(path, []byte(chainSrc(k)), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-target", "stratix-v-gsd8", write(40)}, 1, "TIR090"},
		{[]string{write(40)}, 0, ""},
		{[]string{write(64)}, 1, "TIR060"},
	}
	for _, c := range cases {
		var out, errOut strings.Builder
		code, err := run(c.args, &out, &errOut)
		if err != nil {
			t.Fatal(err)
		}
		if code != c.code || !strings.Contains(out.String(), c.want) || (c.want == "" && out.Len() != 0) {
			t.Errorf("tytravet %v: exit %d, output %q; want exit %d with %q", c.args, code, out.String(), c.code, c.want)
		}
	}
}
