// Package hdl is the code-generation back-end of Fig 11 (the yellow
// path): it translates a TyTra-IR design variant into synthesisable
// Verilog. Each pipe function becomes a pipelined datapath module with
// ASAP-scheduled stage registers and balancing delay lines; stream
// offsets become tapped window buffers inside a per-lane stream-control
// module; comb functions become combinational modules instantiated
// inline; par functions replicate lane instances in the top module.
//
// The generated code targets the integration flow of §VII: the kernel
// HDL is wrapped by a commercial HLS framework (Maxeler in the paper)
// that provides memory controllers and the host API, so the top module
// exposes simple valid-tagged streaming ports.
package hdl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/elab"
	"repro/internal/schedule"
	"repro/internal/tir"
)

// Emit renders the elaborated design as one Verilog source file. A
// design with more than elab.MaxInstances instances is rejected
// (TIR060) before any lane instance is emitted.
func Emit(d *elab.Design) (string, error) {
	if err := d.CheckBound(); err != nil {
		return "", err
	}
	m := d.Module()
	g := &generator{m: m}
	var b strings.Builder
	fmt.Fprintf(&b, "// Generated by the TyTra back-end compiler from module %q.\n", m.Name)
	b.WriteString("// Kernel HDL for integration with an HLS base platform (see Fig 16).\n\n")
	b.WriteString(primitiveLibrary)

	// Emit datapath (and stream-control) modules for every pipe/comb
	// function reachable from main, children first.
	nodes := d.Nodes()
	for i := range nodes {
		var src string
		var err error
		switch n := &nodes[i]; n.Func.Mode {
		case tir.ModePipe:
			src, err = g.pipeModule(n)
		case tir.ModeComb:
			src, err = g.combModule(n.Func)
		}
		if err != nil {
			return "", err
		}
		b.WriteString(src)
	}
	b.WriteString(g.topModule(d.Root()))
	return b.String(), nil
}

// generator carries per-module emission state.
type generator struct {
	m *tir.Module
}

// vname renders an SSA name as a Verilog identifier.
func vname(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	n := b.String()
	if n == "" || (n[0] >= '0' && n[0] <= '9') {
		n = "v" + n
	}
	return n
}

// primitiveLibrary holds the generic support modules every design uses:
// the offset window (the paper's offset buffers, Fig 13) and the
// iterative integer square root unit.
const primitiveLibrary = `// ---- TyTra primitive cores ----

// Offset window: buffers DEPTH elements of a stream and exposes the
// whole window; taps select stencil neighbours (Fig 13's offset
// buffers). AHEAD is the number of elements the controller runs ahead
// of the datapath wave.
module tytra_offset_window #(
    parameter WIDTH = 18,
    parameter DEPTH = 4
) (
    input  wire             clk,
    input  wire             rst,
    input  wire             en,
    input  wire [WIDTH-1:0] din,
    output wire [DEPTH*WIDTH-1:0] window
);
    reg [WIDTH-1:0] buf_r [0:DEPTH-1];
    integer i;
    always @(posedge clk) begin
        if (rst) begin
            for (i = 0; i < DEPTH; i = i + 1) buf_r[i] <= {WIDTH{1'b0}};
        end else if (en) begin
            buf_r[0] <= din;
            for (i = 1; i < DEPTH; i = i + 1) buf_r[i] <= buf_r[i-1];
        end
    end
    genvar k;
    generate
        for (k = 0; k < DEPTH; k = k + 1) begin : taps
            assign window[(k+1)*WIDTH-1:k*WIDTH] = buf_r[k];
        end
    endgenerate
endmodule

// Behavioural integer square root (one result per cycle after fill).
module tytra_isqrt #(
    parameter WIDTH = 18
) (
    input  wire [WIDTH-1:0] a,
    output wire [WIDTH-1:0] q
);
    function [WIDTH-1:0] isqrt_f;
        input [WIDTH-1:0] v;
        reg [WIDTH-1:0] x, b;
        begin
            x = 0;
            b = 1 << (WIDTH - 2);
            while (b != 0) begin
                if (v >= x + b) begin
                    v = v - (x + b);
                    x = (x >> 1) + b;
                end else begin
                    x = x >> 1;
                end
                b = b >> 2;
            end
            isqrt_f = x;
        end
    endfunction
    assign q = isqrt_f(a);
endmodule

`

// opExpr renders the combinational expression of one instruction.
func (g *generator) opExpr(in tir.Instr, ref func(o tir.Operand, at int) string, at int) (string, error) {
	switch it := in.(type) {
	case *tir.BinInstr:
		a := ref(it.A, at)
		b := ref(it.B, at)
		switch it.Op {
		case tir.OpAdd, tir.OpFAdd:
			return fmt.Sprintf("%s + %s", a, b), nil
		case tir.OpSub, tir.OpFSub:
			return fmt.Sprintf("%s - %s", a, b), nil
		case tir.OpMul, tir.OpFMul:
			return fmt.Sprintf("%s * %s", a, b), nil
		case tir.OpDiv, tir.OpFDiv:
			return fmt.Sprintf("(%s == 0) ? {%d{1'b1}} : %s / %s", b, it.Ty.Bits, a, b), nil
		case tir.OpRem:
			return fmt.Sprintf("(%s == 0) ? %s : %s %% %s", b, a, a, b), nil
		case tir.OpAnd:
			return fmt.Sprintf("%s & %s", a, b), nil
		case tir.OpOr:
			return fmt.Sprintf("%s | %s", a, b), nil
		case tir.OpXor:
			return fmt.Sprintf("%s ^ %s", a, b), nil
		case tir.OpShl:
			return fmt.Sprintf("%s << %s", a, b), nil
		case tir.OpLshr:
			return fmt.Sprintf("%s >> %s", a, b), nil
		case tir.OpAshr:
			return fmt.Sprintf("$signed(%s) >>> %s", a, b), nil
		case tir.OpMin:
			return fmt.Sprintf("(%s < %s) ? %s : %s", a, b, a, b), nil
		case tir.OpMax:
			return fmt.Sprintf("(%s < %s) ? %s : %s", a, b, b, a), nil
		}
		return "", fmt.Errorf("hdl: no expression for opcode %s", it.Op)
	case *tir.UnInstr:
		a := ref(it.A, at)
		switch it.Op {
		case tir.OpAbs:
			if it.Ty.Kind == tir.SInt {
				return fmt.Sprintf("($signed(%s) < 0) ? -%s : %s", a, a, a), nil
			}
			return a, nil
		case tir.OpNot:
			return "~" + a, nil
		case tir.OpRecip:
			return fmt.Sprintf("(%s == 0) ? {%d{1'b1}} : (%d'd1 << %d) / %s",
				a, it.Ty.Bits, it.Ty.Bits, it.Ty.Bits-1, a), nil
		}
		return "", fmt.Errorf("hdl: no expression for opcode %s", it.Op)
	case *tir.CmpInstr:
		a := ref(it.A, at)
		b := ref(it.B, at)
		signed := strings.HasPrefix(it.Pred, "s")
		if signed {
			a, b = "$signed("+a+")", "$signed("+b+")"
		}
		switch strings.TrimPrefix(strings.TrimPrefix(it.Pred, "s"), "u") {
		case "eq":
			return fmt.Sprintf("%s == %s", a, b), nil
		case "ne":
			return fmt.Sprintf("%s != %s", a, b), nil
		case "lt":
			return fmt.Sprintf("%s < %s", a, b), nil
		case "le":
			return fmt.Sprintf("%s <= %s", a, b), nil
		case "gt":
			return fmt.Sprintf("%s > %s", a, b), nil
		case "ge":
			return fmt.Sprintf("%s >= %s", a, b), nil
		}
		return "", fmt.Errorf("hdl: no expression for predicate %s", it.Pred)
	case *tir.SelectInstr:
		return fmt.Sprintf("%s ? %s : %s", ref(it.Cond, at), ref(it.A, at), ref(it.B, at)), nil
	}
	return "", fmt.Errorf("hdl: no expression for %T", in)
}

// pipeModule emits the datapath module of a pipe function: scheduled
// stage registers, balancing delay lines, inlined comb children, output
// registers and accumulators, plus its stream-control wrapper when the
// function taps offset streams.
func (g *generator) pipeModule(n *elab.Node) (string, error) {
	f, sch := n.Func, n.Sched
	var b strings.Builder
	outs := f.OutParams()

	width := map[string]int{}
	ready := map[string]int{}
	for _, p := range f.Params {
		width[p.Name] = p.Ty.Bits
		ready[p.Name] = 0
	}

	// Collect offset taps: they arrive as extra inputs from the stream
	// controller.
	type offsetIn struct {
		dst string
		ty  tir.Type
	}
	var offsetIns []offsetIn
	for _, in := range f.Body {
		if o, ok := in.(*tir.OffsetInstr); ok {
			offsetIns = append(offsetIns, offsetIn{o.Dst, o.Ty})
			width[o.Dst] = o.Ty.Bits
			ready[o.Dst] = 0
		}
	}

	// Accumulators.
	accs := map[string]int{}
	var accOrder []string
	for _, in := range f.Body {
		if bi, ok := in.(*tir.BinInstr); ok && bi.GlobalDst {
			if _, seen := accs[bi.Dst]; !seen {
				accs[bi.Dst] = bi.Ty.Bits
				accOrder = append(accOrder, bi.Dst)
			}
		}
	}
	sort.Strings(accOrder)

	// Header.
	fmt.Fprintf(&b, "// Datapath of @%s: pipeline depth %d.\n", f.Name, sch.Depth)
	fmt.Fprintf(&b, "module tytra_%s_dp (\n", vname(f.Name))
	b.WriteString("    input  wire clk,\n    input  wire rst,\n    input  wire in_valid,\n")
	for _, p := range f.Params {
		if outs[p.Name] {
			fmt.Fprintf(&b, "    output wire [%d:0] out_%s,\n", p.Ty.Bits-1, vname(p.Name))
		} else {
			fmt.Fprintf(&b, "    input  wire [%d:0] in_%s,\n", p.Ty.Bits-1, vname(p.Name))
		}
	}
	for _, o := range offsetIns {
		fmt.Fprintf(&b, "    input  wire [%d:0] in_%s,\n", o.ty.Bits-1, vname(o.dst))
	}
	for _, a := range accOrder {
		fmt.Fprintf(&b, "    output reg  [%d:0] acc_%s,\n", accs[a]-1, vname(a))
	}
	b.WriteString("    output wire out_valid\n);\n")

	// Valid shift chain: one bit per pipeline stage.
	depth := sch.Depth
	if depth < 1 {
		depth = 1
	}
	fmt.Fprintf(&b, "    reg [%d:0] valid_r;\n", depth-1)
	b.WriteString("    always @(posedge clk) begin\n")
	b.WriteString("        if (rst) valid_r <= 0;\n")
	if depth > 1 {
		fmt.Fprintf(&b, "        else valid_r <= {valid_r[%d:0], in_valid};\n", depth-2)
	} else {
		b.WriteString("        else valid_r <= {in_valid};\n")
	}
	b.WriteString("    end\n")
	fmt.Fprintf(&b, "    assign out_valid = valid_r[%d];\n\n", depth-1)

	// Delay lines: value -> maximum tap needed.
	maxTap := map[string]int{}
	for _, d := range sch.Delays {
		if d.Cycles > maxTap[d.Value] {
			maxTap[d.Value] = d.Cycles
		}
	}

	// ref renders an operand as consumed at cycle `at`, inserting delay
	// taps for values produced earlier.
	base := map[string]string{} // value -> wire carrying it at ready time
	for _, p := range f.Params {
		if !outs[p.Name] {
			base[p.Name] = "in_" + vname(p.Name)
		}
	}
	for _, o := range offsetIns {
		base[o.dst] = "in_" + vname(o.dst)
	}
	ref := func(o tir.Operand, at int) string {
		switch o.Kind {
		case tir.OpImm:
			return fmt.Sprintf("%d", o.Imm)
		case tir.OpGlobal:
			return "acc_" + vname(o.Name)
		}
		lag := at - ready[o.Name]
		if lag <= 0 {
			return base[o.Name]
		}
		return fmt.Sprintf("%s_dly%d", vname(o.Name), lag)
	}

	// Datapath: walk the scheduled nodes in program order.
	var logic strings.Builder
	var err error
	for _, node := range sch.Nodes {
		switch it := node.Instr.(type) {
		case *tir.OffsetInstr:
			// Provided by the stream controller.
		case *tir.ConstInstr:
			fmt.Fprintf(&logic, "    wire [%d:0] %s = %d; // const\n",
				it.Ty.Bits-1, vname(it.Dst), it.Ty.Wrap(it.Val))
			base[it.Dst] = vname(it.Dst)
			ready[it.Dst] = 0
			width[it.Dst] = it.Ty.Bits
		case *tir.CallInstr:
			if it.Mode != tir.ModeComb {
				continue
			}
			callee := g.m.Func(it.Callee)
			couts := callee.OutParams()
			fmt.Fprintf(&logic, "    // inlined comb block @%s\n", it.Callee)
			var conns []string
			for k, a := range it.Args {
				param := callee.Params[k]
				if couts[param.Name] {
					w := fmt.Sprintf("%s_c", vname(a.Name))
					fmt.Fprintf(&logic, "    wire [%d:0] %s;\n", param.Ty.Bits-1, w)
					conns = append(conns, fmt.Sprintf(".out_%s(%s)", vname(param.Name), w))
				} else {
					conns = append(conns, fmt.Sprintf(".in_%s(%s)", vname(param.Name), ref(a, node.Start)))
				}
			}
			fmt.Fprintf(&logic, "    tytra_%s u_%s_%d (%s);\n",
				vname(it.Callee), vname(it.Callee), node.Start, strings.Join(conns, ", "))
			// Register the comb outputs at the stage boundary.
			for k, a := range it.Args {
				param := callee.Params[k]
				if !couts[param.Name] || a.Kind != tir.OpReg {
					continue
				}
				fmt.Fprintf(&logic, "    reg [%d:0] %s;\n", param.Ty.Bits-1, vname(a.Name))
				fmt.Fprintf(&logic, "    always @(posedge clk) %s <= %s_c;\n", vname(a.Name), vname(a.Name))
				base[a.Name] = vname(a.Name)
				ready[a.Name] = node.Start + node.Latency
				width[a.Name] = param.Ty.Bits
			}
		case *tir.OutInstr:
			fmt.Fprintf(&logic, "    assign out_%s = %s;\n", vname(it.Port), ref(it.Val, node.Start))
		case *tir.BinInstr:
			if it.GlobalDst {
				fmt.Fprintf(&logic, "    // reduction into @%s\n", it.Dst)
				fmt.Fprintf(&logic, "    always @(posedge clk) begin\n")
				fmt.Fprintf(&logic, "        if (rst) acc_%s <= 0;\n", vname(it.Dst))
				cond := "valid_r[0]"
				if node.Start > 0 {
					cond = fmt.Sprintf("valid_r[%d]", node.Start-1)
				} else {
					cond = "in_valid"
				}
				e, err := g.opExpr(it, ref, node.Start)
				if err != nil {
					return "", err
				}
				fmt.Fprintf(&logic, "        else if (%s) acc_%s <= %s;\n", cond, vname(it.Dst), e)
				fmt.Fprintf(&logic, "    end\n")
				continue
			}
			err = g.emitStaged(&logic, it.Dst, it.Ty.Bits, node, it, ref, base, ready, width)
		case *tir.UnInstr:
			if it.Op == tir.OpSqrt {
				w := vname(it.Dst)
				fmt.Fprintf(&logic, "    wire [%d:0] %s_c;\n", it.Ty.Bits-1, w)
				fmt.Fprintf(&logic, "    tytra_isqrt #(.WIDTH(%d)) u_sqrt_%s (.a(%s), .q(%s_c));\n",
					it.Ty.Bits, w, ref(it.A, node.Start), w)
				g.emitRegChain(&logic, it.Dst, it.Ty.Bits, w+"_c", node, base, ready, width)
				continue
			}
			err = g.emitStaged(&logic, it.Dst, it.Ty.Bits, node, it, ref, base, ready, width)
		case *tir.CmpInstr:
			err = g.emitStaged(&logic, it.Dst, 1, node, it, ref, base, ready, width)
		case *tir.SelectInstr:
			err = g.emitStaged(&logic, it.Dst, it.Ty.Bits, node, it, ref, base, ready, width)
		}
		if err != nil {
			return "", err
		}
	}

	// Balancing delay lines.
	var delays strings.Builder
	names := make([]string, 0, len(maxTap))
	for v := range maxTap {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		n := maxTap[v]
		w := width[v]
		if w == 0 {
			w = 1
		}
		fmt.Fprintf(&delays, "    // balancing delay line for %s (%d stages)\n", v, n)
		for k := 1; k <= n; k++ {
			prev := base[v]
			if k > 1 {
				prev = fmt.Sprintf("%s_dly%d", vname(v), k-1)
			}
			fmt.Fprintf(&delays, "    reg [%d:0] %s_dly%d;\n", w-1, vname(v), k)
			fmt.Fprintf(&delays, "    always @(posedge clk) %s_dly%d <= %s;\n", vname(v), k, prev)
		}
	}

	b.WriteString(delays.String())
	b.WriteString(logic.String())
	b.WriteString("endmodule\n\n")

	b.WriteString(g.streamControl(f, schedule.OffsetWindows(f)))
	return b.String(), nil
}

// emitStaged renders one scheduled instruction: combinational expression
// plus a register chain of the node's latency.
func (g *generator) emitStaged(b *strings.Builder, dst string, bits int, node schedule.Node,
	in tir.Instr, ref func(tir.Operand, int) string,
	base map[string]string, ready, width map[string]int) error {
	expr, err := g.opExpr(in, ref, node.Start)
	if err != nil {
		return err
	}
	comb := vname(dst) + "_c"
	fmt.Fprintf(b, "    wire [%d:0] %s = %s;\n", bits-1, comb, expr)
	g.emitRegChain(b, dst, bits, comb, node, base, ready, width)
	return nil
}

// emitRegChain registers a combinational result through the node's
// latency stages.
func (g *generator) emitRegChain(b *strings.Builder, dst string, bits int, comb string,
	node schedule.Node, base map[string]string, ready, width map[string]int) {
	lat := node.Latency
	if lat < 1 {
		lat = 1
	}
	prev := comb
	for k := 1; k <= lat; k++ {
		name := fmt.Sprintf("%s_p%d", vname(dst), k)
		if k == lat {
			name = vname(dst)
		}
		fmt.Fprintf(b, "    reg [%d:0] %s;\n", bits-1, name)
		fmt.Fprintf(b, "    always @(posedge clk) %s <= %s;\n", name, prev)
		prev = name
	}
	base[dst] = vname(dst)
	ready[dst] = node.Start + node.Latency
	width[dst] = bits
}

// streamControl emits the per-lane stream controller: window buffers for
// every offset stream and the pass-through wiring for plain streams
// (Fig 13's "stream control" and "offset buffers" blocks).
func (g *generator) streamControl(f *tir.Function, windows []schedule.OffsetWindow) string {
	var b strings.Builder
	outs := f.OutParams()

	// Offsets per destination, resolved to root windows.
	type tap struct {
		dst  string
		ty   tir.Type
		root string
		off  int64
	}
	var taps []tap
	roots := map[string]struct {
		root string
		off  int64
	}{}
	for _, in := range f.Body {
		o, ok := in.(*tir.OffsetInstr)
		if !ok {
			continue
		}
		r := struct {
			root string
			off  int64
		}{o.Src.Name, o.Offset}
		if prev, chained := roots[o.Src.Name]; chained {
			r = struct {
				root string
				off  int64
			}{prev.root, prev.off + o.Offset}
		}
		roots[o.Dst] = r
		taps = append(taps, tap{o.Dst, o.Ty, r.root, r.off})
	}

	fmt.Fprintf(&b, "// Stream controller of @%s: offset windows and wave alignment.\n", f.Name)
	fmt.Fprintf(&b, "module tytra_%s_sc (\n", vname(f.Name))
	b.WriteString("    input  wire clk,\n    input  wire rst,\n    input  wire in_valid,\n")
	for _, p := range f.Params {
		dir := "input "
		prefix := "s_in_"
		if outs[p.Name] {
			dir = "output"
			prefix = "s_out_"
		}
		fmt.Fprintf(&b, "    %s wire [%d:0] %s%s,\n", dir, p.Ty.Bits-1, prefix, vname(p.Name))
	}
	b.WriteString("    output wire out_valid\n);\n")

	winFor := map[string]schedule.OffsetWindow{}
	for _, w := range windows {
		winFor[w.Stream] = w
	}

	// Window instances per offset-carrying stream.
	for _, w := range windows {
		depth := w.Window()
		fmt.Fprintf(&b, "    wire [%d:0] win_%s;\n", depth*int64(w.Bits)-1, vname(w.Stream))
		fmt.Fprintf(&b, "    tytra_offset_window #(.WIDTH(%d), .DEPTH(%d)) u_win_%s (\n",
			w.Bits, depth, vname(w.Stream))
		fmt.Fprintf(&b, "        .clk(clk), .rst(rst), .en(in_valid), .din(s_in_%s), .window(win_%s));\n",
			vname(w.Stream), vname(w.Stream))
	}

	// Datapath instance: plain streams align to the window centre; taps
	// select neighbours.
	fmt.Fprintf(&b, "    tytra_%s_dp u_dp (\n        .clk(clk), .rst(rst), .in_valid(in_valid),\n", vname(f.Name))
	var conns []string
	for _, p := range f.Params {
		if outs[p.Name] {
			conns = append(conns, fmt.Sprintf("        .out_%s(s_out_%s)", vname(p.Name), vname(p.Name)))
			continue
		}
		if w, ok := winFor[p.Name]; ok {
			// The current element sits MaxAhead slots into the window
			// (look-ahead elements arrive first).
			slot := w.MaxAhead
			conns = append(conns, fmt.Sprintf("        .in_%s(win_%s[%d*%d +: %d])",
				vname(p.Name), vname(p.Name), slot, w.Bits, w.Bits))
			continue
		}
		conns = append(conns, fmt.Sprintf("        .in_%s(s_in_%s)", vname(p.Name), vname(p.Name)))
	}
	for _, t := range taps {
		w := winFor[t.root]
		slot := w.MaxAhead - t.off // positive offsets are earlier in the window
		conns = append(conns, fmt.Sprintf("        .in_%s(win_%s[%d*%d +: %d])",
			vname(t.dst), vname(t.root), slot, w.Bits, w.Bits))
	}
	conns = append(conns, "        .out_valid(out_valid)")
	b.WriteString(strings.Join(conns, ",\n"))
	b.WriteString(");\n")
	b.WriteString("endmodule\n\n")
	return b.String()
}

// combModule emits a comb function as a purely combinational module.
func (g *generator) combModule(f *tir.Function) (string, error) {
	var b strings.Builder
	outs := f.OutParams()
	fmt.Fprintf(&b, "// Custom combinational block @%s.\n", f.Name)
	fmt.Fprintf(&b, "module tytra_%s (\n", vname(f.Name))
	var decls []string
	for _, p := range f.Params {
		dir := "input "
		prefix := "in_"
		if outs[p.Name] {
			dir = "output"
			prefix = "out_"
		}
		decls = append(decls, fmt.Sprintf("    %s wire [%d:0] %s%s", dir, p.Ty.Bits-1, prefix, vname(p.Name)))
	}
	b.WriteString(strings.Join(decls, ",\n"))
	b.WriteString("\n);\n")

	base := map[string]string{}
	for _, p := range f.Params {
		if !outs[p.Name] {
			base[p.Name] = "in_" + vname(p.Name)
		}
	}
	ref := func(o tir.Operand, at int) string {
		switch o.Kind {
		case tir.OpImm:
			return fmt.Sprintf("%d", o.Imm)
		case tir.OpGlobal:
			return "0 /* global in comb */"
		}
		return base[o.Name]
	}
	for _, in := range f.Body {
		// decl is the declaration of the wire an expression defines.
		var dst, decl string
		switch it := in.(type) {
		case *tir.ConstInstr:
			fmt.Fprintf(&b, "    wire [%d:0] %s = %d;\n", it.Ty.Bits-1, vname(it.Dst), it.Ty.Wrap(it.Val))
			base[it.Dst] = vname(it.Dst)
			continue
		case *tir.OutInstr:
			fmt.Fprintf(&b, "    assign out_%s = %s;\n", vname(it.Port), ref(it.Val, 0))
			continue
		case *tir.UnInstr:
			if it.Op == tir.OpSqrt {
				// The same primitive core a pipe datapath instantiates.
				w := vname(it.Dst)
				fmt.Fprintf(&b, "    wire [%d:0] %s;\n", it.Ty.Bits-1, w)
				fmt.Fprintf(&b, "    tytra_isqrt #(.WIDTH(%d)) u_sqrt_%s (.a(%s), .q(%s));\n", it.Ty.Bits, w, ref(it.A, 0), w)
				base[it.Dst] = w
				continue
			}
			dst, decl = it.Dst, fmt.Sprintf("wire [%d:0]", it.Ty.Bits-1)
		case *tir.BinInstr:
			dst, decl = it.Dst, fmt.Sprintf("wire [%d:0]", it.Ty.Bits-1)
		case *tir.CmpInstr:
			dst, decl = it.Dst, "wire"
		case *tir.SelectInstr:
			dst, decl = it.Dst, fmt.Sprintf("wire [%d:0]", it.Ty.Bits-1)
		}
		e, err := g.opExpr(in, ref, 0)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "    %s %s = %s;\n", decl, vname(dst), e)
		base[dst] = vname(dst)
	}
	b.WriteString("endmodule\n\n")
	return b.String(), nil
}

// topModule wires the lane instances to the design's external
// streaming ports (the boundary handed to the HLS base platform): one
// stream-controller instance per pipe call path from root, wired to the
// ports named at the call.
func (g *generator) topModule(root *elab.Node) string {
	m := g.m
	var b strings.Builder
	fmt.Fprintf(&b, "// Top: kernel boundary of module %q for HLS integration.\n", m.Name)
	fmt.Fprintf(&b, "module tytra_top_%s (\n", vname(m.Name))
	b.WriteString("    input  wire clk,\n    input  wire rst,\n    input  wire in_valid,\n")
	for _, p := range m.Ports {
		dir := "input "
		prefix := "p_in_"
		if p.Dir == tir.DirOut {
			dir = "output"
			prefix = "p_out_"
		}
		fmt.Fprintf(&b, "    %s wire [%d:0] %s%s,\n", dir, p.Elem.Bits-1, prefix, vname(p.Name))
	}
	b.WriteString("    output wire out_valid\n);\n")

	// Every argument of a pipe call wires a port (tir.Analyze, TIR040),
	// and only a seq root calls a par function (TIR033, TIR047).
	var valids []string
	var emit func(n *elab.Node)
	emit = func(n *elab.Node) {
		for _, c := range n.Calls {
			switch c.Site.Mode {
			case tir.ModePar:
				emit(c.Callee)
			case tir.ModePipe:
				callee := c.Callee.Func
				outs := callee.OutParams()
				conns := make([]string, len(c.Site.Args))
				for k, a := range c.Site.Args {
					param := callee.Params[k]
					if outs[param.Name] {
						conns[k] = fmt.Sprintf(".s_out_%s(p_out_%s)", vname(param.Name), vname(a.Name))
					} else {
						conns[k] = fmt.Sprintf(".s_in_%s(p_in_%s)", vname(param.Name), vname(a.Name))
					}
				}
				lane := len(valids)
				v := fmt.Sprintf("lane_valid_%d", lane)
				fmt.Fprintf(&b, "    wire %s;\n", v)
				fmt.Fprintf(&b, "    tytra_%s_sc u_lane_%d (.clk(clk), .rst(rst), .in_valid(in_valid), %s, .out_valid(%s));\n",
					vname(c.Site.Callee), lane, strings.Join(conns, ", "), v)
				valids = append(valids, v)
				// Coarse-grained pipe children of this lane.
				emit(c.Callee)
			}
		}
	}
	emit(root)
	if len(valids) == 0 {
		// A design without kernel lanes never produces a valid output.
		valids = []string{"1'b0"}
	}
	fmt.Fprintf(&b, "    assign out_valid = %s;\n", strings.Join(valids, " & "))
	b.WriteString("endmodule\n")
	return b.String()
}
