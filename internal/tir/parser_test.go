package tir

import (
	"strings"
	"testing"
)

// sorIR is a hand-written module in surface syntax exercising every
// construct: Manage-IR objects, ports, offsets, constant and global
// destinations, out binding and the call hierarchy.
const sorIR = `
; **** MANAGE-IR ****
%mem_p    = memobj ui18, size 2400, space global, pattern CONT
%mem_rhs  = memobj ui18, size 2400, space global, pattern CONT
%mem_pn   = memobj ui18, size 2400, space global, pattern CONT
%str_p    = strobj %mem_p, dir in, port main.p
%str_rhs  = strobj %mem_rhs, dir in, port main.rhs
%str_pn   = strobj %mem_pn, dir out, port main.p_new

; **** COMPUTE-IR ****
@main.p     = addrSpace(12) ui18, !"istream", !"CONT", !0, !"str_p"
@main.rhs   = addrSpace(12) ui18, !"istream", !"CONT", !0, !"str_rhs"
@main.p_new = addrSpace(12) ui18, !"ostream", !"CONT", !0, !"str_pn"

define void @f0(ui18 %p, ui18 %rhs, ui18 %p_new) pipe {
  ui18 %pip1 = ui18 %p, !offset, !+1
  ui18 %pin1 = ui18 %p, !offset, !-1
  ui18 %cn = const ui18 13
  ui18 %m1 = mul ui18 %pip1, %cn
  ui18 %m2 = mul ui18 %pin1, 14
  ui18 %sum = add ui18 %m1, %m2
  ui18 %diff = sub ui18 %sum, %rhs
  ui1 %big = icmp ugt ui18 %diff, %p
  ui18 %sel = select ui1 %big, ui18 %diff, %p
  out ui18 %p_new, %sel
  ui18 @errAcc = add ui18 %diff, @errAcc
}
define void @main() {
  call @f0(@main.p, @main.rhs, @main.p_new) pipe
}
`

func TestPrintParseRoundTrip(t *testing.T) {
	m1, err := Parse("sor", sorIR)
	if err != nil {
		t.Fatal(err)
	}
	text1 := m1.String()
	m2, err := Parse("sor", text1)
	if err != nil {
		t.Fatalf("re-parse of printed module failed: %v\n%s", err, text1)
	}
	text2 := m2.String()
	if text1 != text2 {
		t.Errorf("print/parse/print not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
}

func TestBuilderPrintParseRoundTrip(t *testing.T) {
	// Builder-generated modules round trip too (the path the kernel
	// library and front-end take).
	b := NewBuilder("rt")
	ty := UIntT(20)
	f0 := b.Func("f0", ModePipe)
	x := f0.InStream("x", ty, 128, PatternStrided, 16)
	q := f0.OutStream("q", ty, 128, PatternContiguous, 1)
	o := f0.Offset(x, -3)
	v := f0.Add(f0.MulImm(o, 6), x)
	f0.Out(q, f0.Bin(OpMax, v, x))
	f0.Accumulate("acc", OpAdd, v)
	main := b.Func("main", ModeSeq)
	main.CallOperands("f0", ModePipe, Global("f0.x"), Global("f0.q"))

	m1 := b.MustModule()
	text1 := m1.String()
	m2, err := Parse("rt", text1)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text1)
	}
	if text2 := m2.String(); text1 != text2 {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", text1, text2)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad type":       `define void @main() { ui99 %x = const ui99 1 }`,
		"bad keyword":    `define void @f() zoom { }`,
		"missing mode":   `define void @f() { }`,
		"bad opcode":     `define void @main() { ui8 %x = frob ui8 %y, %z }`,
		"unclosed paren": `define void @main( { }`,
		"garbage":        `@@@`,
		"bad predicate":  `define void @main() { ui1 %c = icmp zz ui8 %a, %b }`,
		"const mismatch": `define void @main() { ui8 %x = const ui9 1 }`,
		"global const":   `define void @main() { ui8 @x = const ui8 1 }`,
		"offset type":    `define void @main() { ui8 %x = ui9 %y, !offset, !+1 }`,
	}
	for name, src := range cases {
		if _, err := ParseOnly("bad", src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestValidateCatches(t *testing.T) {
	cases := map[string]string{
		"no main": `define void @f0() pipe { ui8 %x = const ui8 1 }`,
		"double assignment": `define void @main() pipe {
			ui8 %x = const ui8 1
			ui8 %x = const ui8 2 }`,
		"undefined use": `define void @main() pipe {
			ui8 %y = add ui8 %nope, 1 }`,
		"unknown callee": `define void @main() { call @ghost() pipe }`,
		"recursion": `define void @f0() pipe { call @main() seq }
			define void @main() { call @f0() pipe }`,
		"par with datapath": `define void @f0() par { ui8 %x = const ui8 1 }
			define void @main() { call @f0() par }`,
		"par of seq": `define void @f1() seq { ui8 %x = const ui8 1 }
			define void @f0() par { call @f1() seq }
			define void @main() { call @f0() par }`,
		"comb with call": `define void @f1() pipe { ui8 %x = const ui8 1 }
			define void @f0() comb { call @f1() pipe }
			define void @main() { call @f0() comb }`,
		"comb with offset": `define void @f0(ui8 %a, ui8 %r) comb {
			ui8 %o = ui8 %a, !offset, !+1
			out ui8 %r, %o }
			define void @f1(ui8 %x) pipe { call @f0(%x, %y) comb }
			define void @main() { call @f1(@main.x) pipe }`,
		"arity mismatch": `define void @f0(ui8 %a) pipe { ui8 %x = add ui8 %a, 1 }
			define void @main() { call @f0() pipe }`,
		"mode mismatch": `define void @f0() pipe { ui8 %x = const ui8 1 }
			define void @main() { call @f0() seq }`,
		"zero offset": `define void @main(ui8 %p) pipe {
			ui8 %x = ui8 %p, !offset, !+0 }`,
		"float op on int": `define void @main(ui8 %p) pipe {
			ui8 %x = fadd ui8 %p, %p }`,
		"accumulate without read": `define void @main(ui8 %p) pipe {
			ui8 @acc = add ui8 %p, %p }`,
		"out to non-param": `define void @main(ui8 %p) pipe {
			out ui8 %q, %p }`,
		"out type mismatch": `define void @main(ui8 %p, ui9 %q) pipe {
			out ui8 %q, %p }`,
		"out bound twice": `define void @main(ui8 %p, ui8 %q) pipe {
			out ui8 %q, %p
			out ui8 %q, %p }`,
	}
	for name, src := range cases {
		m, err := ParseOnly("bad", src)
		if err != nil {
			t.Errorf("%s: parse error (should fail in validate): %v", name, err)
			continue
		}
		if err := m.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestValidateManageIRLinkage(t *testing.T) {
	base := func(mod func(*Module)) error {
		m, err := ParseOnly("x", sorIR)
		if err != nil {
			t.Fatal(err)
		}
		mod(m)
		return m.Validate()
	}
	if err := base(func(m *Module) {}); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	if err := base(func(m *Module) { m.Streams[0].Mem = "ghost" }); err == nil {
		t.Error("dangling stream->mem accepted")
	}
	if err := base(func(m *Module) { m.Ports[0].Stream = "ghost" }); err == nil {
		t.Error("dangling port->stream accepted")
	}
	if err := base(func(m *Module) { m.Ports[0].Dir = DirOut }); err == nil {
		t.Error("port/stream direction mismatch accepted")
	}
	if err := base(func(m *Module) { m.MemObjects[0].Size = 0 }); err == nil {
		t.Error("zero-size memory object accepted")
	}
	if err := base(func(m *Module) { m.MemObjects = append(m.MemObjects, m.MemObjects[0]) }); err == nil {
		t.Error("duplicate memory object accepted")
	}
}

func TestParLanesMustMatch(t *testing.T) {
	src := `define void @fa() pipe { ui8 %x = const ui8 1 }
		define void @fb() pipe { ui8 %x = const ui8 1 }
		define void @f1() par { call @fa() pipe
		call @fb() pipe }
		define void @main() { call @f1() par }`
	m, err := ParseOnly("mixed", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "replicate") {
		t.Errorf("heterogeneous par lanes accepted (err=%v)", err)
	}
}

func TestInstrStringRoundTrip(t *testing.T) {
	// Each instruction String() form is re-parseable inside a function.
	instrs := []string{
		`ui18 %a = ui18 %p, !offset, !+5`,
		`ui18 %b = ui18 %p, !offset, !-150`,
		`ui18 %c = const ui18 42`,
		`ui18 %d = mul ui18 %p, 13`,
		`ui18 %e = add ui18 %d, %c`,
		`ui18 %f = abs ui18 %e`,
		`ui1 %g = icmp slt ui18 %e, %f`,
		`ui18 %h = select ui1 %g, ui18 %e, %f`,
		`ui18 @acc = add ui18 %h, @acc`,
		`out ui18 %q, %h`,
	}
	src := "define void @main(ui18 %p, ui18 %q) pipe {\n  " +
		strings.Join(instrs, "\n  ") + "\n}"
	m, err := ParseOnly("instr", src)
	if err != nil {
		t.Fatal(err)
	}
	body := m.Main().Body
	if len(body) != len(instrs) {
		t.Fatalf("parsed %d instructions, want %d", len(body), len(instrs))
	}
	for i, in := range body {
		if got := in.String(); got != instrs[i] {
			t.Errorf("instruction %d renders %q, want %q", i, got, instrs[i])
		}
	}
}
