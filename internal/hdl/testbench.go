package hdl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/elab"
	"repro/internal/tir"
)

// EmitTestbench generates a self-checking Verilog testbench for the
// design's top module: input streams are driven from the given memory
// contents one element per cycle, and every output stream is compared
// against the expected values (typically produced by the golden kernel
// or the pipeline simulator). The bench counts mismatches and finishes
// with a PASS/FAIL banner — the handoff artifact for verifying the
// generated kernel in a commercial simulator before HLS integration
// (§VII's flow).
//
// latency is the number of cycles to wait after the last input before
// checking is abandoned (use the estimated KPD plus the priming depth,
// with margin).
func EmitTestbench(d *elab.Design, mem map[string][]int64, expected map[string][]int64, latency int) (string, error) {
	m := d.Module()
	if latency < 1 {
		latency = 1
	}

	type stream struct {
		port *tir.Port
		data []int64
	}
	var ins, outs []stream
	for _, p := range m.Ports {
		so := m.Stream(p.Stream)
		if so == nil {
			return "", fmt.Errorf("hdl: port @%s has no stream object", p.Name)
		}
		switch p.Dir {
		case tir.DirIn:
			data, ok := mem[so.Mem]
			if !ok {
				// Locally-buffered inter-stage channels are driven by the
				// design itself.
				mo := m.MemObject(so.Mem)
				if mo != nil && mo.Space == tir.SpaceLocal {
					continue
				}
				return "", fmt.Errorf("hdl: no stimulus for input stream %%%s", so.Mem)
			}
			ins = append(ins, stream{p, data})
		case tir.DirOut:
			data, ok := expected[so.Mem]
			if !ok {
				mo := m.MemObject(so.Mem)
				if mo != nil && mo.Space == tir.SpaceLocal {
					continue
				}
				return "", fmt.Errorf("hdl: no expected values for output stream %%%s", so.Mem)
			}
			outs = append(outs, stream{p, data})
		}
	}
	if len(ins) == 0 || len(outs) == 0 {
		return "", fmt.Errorf("hdl: testbench needs at least one external input and output")
	}
	sort.Slice(ins, func(i, j int) bool { return ins[i].port.Name < ins[j].port.Name })
	sort.Slice(outs, func(i, j int) bool { return outs[i].port.Name < outs[j].port.Name })

	n := len(ins[0].data)
	for _, s := range append(ins, outs...) {
		if len(s.data) != n {
			return "", fmt.Errorf("hdl: stream lengths differ (%d vs %d)", len(s.data), n)
		}
	}

	var b strings.Builder
	top := "tytra_top_" + vname(m.Name)
	fmt.Fprintf(&b, "// Self-checking testbench for %s: %d work-items, latency margin %d cycles.\n",
		top, n, latency)
	fmt.Fprintf(&b, "`timescale 1ns/1ps\nmodule %s_tb;\n", top)
	b.WriteString("    reg clk = 0;\n    reg rst = 1;\n    reg in_valid = 0;\n")
	b.WriteString("    always #5 clk = ~clk;\n\n")

	for _, s := range ins {
		fmt.Fprintf(&b, "    reg  [%d:0] %s_mem [0:%d];\n", s.port.Elem.Bits-1, vname(s.port.Name), n-1)
		fmt.Fprintf(&b, "    reg  [%d:0] %s;\n", s.port.Elem.Bits-1, vname(s.port.Name))
	}
	for _, s := range outs {
		fmt.Fprintf(&b, "    reg  [%d:0] %s_exp [0:%d];\n", s.port.Elem.Bits-1, vname(s.port.Name), n-1)
		fmt.Fprintf(&b, "    wire [%d:0] %s;\n", s.port.Elem.Bits-1, vname(s.port.Name))
	}
	b.WriteString("    wire out_valid;\n    integer i;\n    integer errors = 0;\n    integer got = 0;\n\n")

	// Stimulus memories.
	b.WriteString("    initial begin\n")
	for _, s := range ins {
		for i, v := range s.data {
			fmt.Fprintf(&b, "        %s_mem[%d] = %d;\n", vname(s.port.Name), i, s.port.Elem.Wrap(v))
		}
	}
	for _, s := range outs {
		for i, v := range s.data {
			fmt.Fprintf(&b, "        %s_exp[%d] = %d;\n", vname(s.port.Name), i, s.port.Elem.Wrap(v))
		}
	}
	b.WriteString("    end\n\n")

	// Device under test.
	fmt.Fprintf(&b, "    %s dut (.clk(clk), .rst(rst), .in_valid(in_valid),\n", top)
	var conns []string
	for _, s := range ins {
		conns = append(conns, fmt.Sprintf("        .p_in_%s(%s)", vname(s.port.Name), vname(s.port.Name)))
	}
	for _, s := range outs {
		conns = append(conns, fmt.Sprintf("        .p_out_%s(%s)", vname(s.port.Name), vname(s.port.Name)))
	}
	b.WriteString(strings.Join(conns, ",\n"))
	b.WriteString(",\n        .out_valid(out_valid));\n\n")

	// Drive.
	b.WriteString("    initial begin\n")
	b.WriteString("        repeat (4) @(posedge clk);\n        rst = 0;\n")
	fmt.Fprintf(&b, "        for (i = 0; i < %d; i = i + 1) begin\n", n)
	for _, s := range ins {
		fmt.Fprintf(&b, "            %s = %s_mem[i];\n", vname(s.port.Name), vname(s.port.Name))
	}
	b.WriteString("            in_valid = 1;\n            @(posedge clk);\n        end\n")
	b.WriteString("        in_valid = 0;\n")
	fmt.Fprintf(&b, "        repeat (%d) @(posedge clk);\n", latency)
	fmt.Fprintf(&b, "        if (got < %d) begin\n", n)
	fmt.Fprintf(&b, "            $display(\"FAIL: only %%0d of %d outputs observed\", got);\n", n)
	b.WriteString("            $finish;\n        end\n")
	b.WriteString("        if (errors == 0) $display(\"PASS: all outputs match\");\n")
	b.WriteString("        else $display(\"FAIL: %0d mismatches\", errors);\n")
	b.WriteString("        $finish;\n    end\n\n")

	// Check.
	b.WriteString("    always @(posedge clk) begin\n")
	fmt.Fprintf(&b, "        if (!rst && out_valid && got < %d) begin\n", n)
	for _, s := range outs {
		fmt.Fprintf(&b, "            if (%s !== %s_exp[got]) begin\n", vname(s.port.Name), vname(s.port.Name))
		fmt.Fprintf(&b, "                errors = errors + 1;\n")
		fmt.Fprintf(&b, "                $display(\"mismatch %s[%%0d]: got %%0d want %%0d\", got, %s, %s_exp[got]);\n",
			vname(s.port.Name), vname(s.port.Name), vname(s.port.Name))
		b.WriteString("            end\n")
	}
	b.WriteString("            got = got + 1;\n        end\n    end\nendmodule\n")
	return b.String(), nil
}
