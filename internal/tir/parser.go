package tir

import (
	"strconv"

	"repro/internal/diag"
)

// Parse parses TyTra-IR source into a Module; name is used for
// error messages and as the module name. It reports only lexical and
// syntax errors (TIR001): whether the module is legal is the verdict of
// elab.Elaborate, which every back end reads.
func Parse(name, src string) (*Module, error) {
	toks, err := lex(name, src)
	if err != nil {
		return nil, err
	}
	p := &parser{file: name, toks: toks, mod: &Module{Name: name}}
	if err := p.parseModule(); err != nil {
		return nil, err
	}
	return p.mod, nil
}

type parser struct {
	file string
	toks []token
	pos  int
	mod  *Module
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// at returns the source position of a token.
func (p *parser) at(t token) diag.Pos {
	return diag.Pos{File: p.file, Line: t.line, Col: t.col}
}

// errf returns a positioned syntax diagnostic (code TIR001).
func (p *parser) errf(t token, format string, args ...any) error {
	return diag.New(diag.Error, CodeSyntax, p.at(t), format, args...)
}

// expect consumes a token of the given kind, or fails.
func (p *parser) expect(kind tokKind) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, p.errf(t, "expected %s, found %s %q", kind, t.kind, t.text)
	}
	return t, nil
}

// expectPunct consumes the exact punctuation rune.
func (p *parser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return p.errf(t, "expected %q, found %q", s, t.text)
	}
	return nil
}

// expectKeyword consumes the exact identifier.
func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != kw {
		return p.errf(t, "expected keyword %q, found %q", kw, t.text)
	}
	return nil
}

// acceptPunct consumes the punctuation if present and reports whether it
// did.
func (p *parser) acceptPunct(s string) bool {
	if t := p.peek(); t.kind == tokPunct && t.text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) parseInt() (int64, error) {
	neg := false
	if p.acceptPunct("-") {
		neg = true
	} else {
		p.acceptPunct("+")
	}
	t, err := p.expect(tokInt)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, p.errf(t, "invalid integer %q", t.text)
	}
	if neg {
		v = -v
	}
	return v, nil
}

func (p *parser) parseType() (Type, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return Type{}, err
	}
	ty, err := ParseType(t.text)
	if err != nil {
		return Type{}, p.errf(t, "%v", err)
	}
	return ty, nil
}

// parseModule parses the sequence of top-level declarations.
func (p *parser) parseModule() error {
	for {
		t := p.peek()
		switch {
		case t.kind == tokEOF:
			return nil
		case t.kind == tokLocal:
			if err := p.parseManageDecl(); err != nil {
				return err
			}
		case t.kind == tokGlobalID:
			if err := p.parsePortDecl(); err != nil {
				return err
			}
		case t.kind == tokIdent && t.text == "define":
			if err := p.parseFunction(); err != nil {
				return err
			}
		default:
			return p.errf(t, "expected declaration, found %q", t.text)
		}
	}
}

// parseManageDecl parses a memobj or strobj declaration:
//
//	%p = memobj ui18, size 4096, space global, pattern CONT, stride 1
//	%strobj_p = strobj %p, dir in, port main.p
func (p *parser) parseManageDecl() error {
	nameTok, err := p.expect(tokLocal)
	if err != nil {
		return err
	}
	if err := p.expectPunct("="); err != nil {
		return err
	}
	kindTok, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	switch kindTok.text {
	case "memobj":
		mo := &MemObject{Name: nameTok.text, Stride: 1, At: p.at(nameTok)}
		if mo.Elem, err = p.parseType(); err != nil {
			return err
		}
		for p.acceptPunct(",") {
			kw, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			switch kw.text {
			case "size":
				if mo.Size, err = p.parseInt(); err != nil {
					return err
				}
			case "space":
				sp, err := p.expect(tokIdent)
				if err != nil {
					return err
				}
				if mo.Space, err = ParseMemSpace(sp.text); err != nil {
					return p.errf(sp, "%v", err)
				}
			case "pattern":
				pt, err := p.expect(tokIdent)
				if err != nil {
					return err
				}
				if mo.Pattern, err = ParseAccessPattern(pt.text); err != nil {
					return p.errf(pt, "%v", err)
				}
			case "stride":
				if mo.Stride, err = p.parseInt(); err != nil {
					return err
				}
			default:
				return p.errf(kw, "unknown memobj attribute %q", kw.text)
			}
		}
		p.mod.MemObjects = append(p.mod.MemObjects, mo)
		return nil
	case "strobj":
		so := &StreamObject{Name: nameTok.text, At: p.at(nameTok)}
		memTok, err := p.expect(tokLocal)
		if err != nil {
			return err
		}
		so.Mem = memTok.text
		for p.acceptPunct(",") {
			kw, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			switch kw.text {
			case "dir":
				d, err := p.expect(tokIdent)
				if err != nil {
					return err
				}
				switch d.text {
				case "in":
					so.Dir = DirIn
				case "out":
					so.Dir = DirOut
				default:
					return p.errf(d, "stream dir must be in or out, found %q", d.text)
				}
			case "port":
				pt, err := p.expect(tokIdent)
				if err != nil {
					return err
				}
				so.Port = pt.text
			default:
				return p.errf(kw, "unknown strobj attribute %q", kw.text)
			}
		}
		p.mod.Streams = append(p.mod.Streams, so)
		return nil
	default:
		return p.errf(kindTok, "expected memobj or strobj, found %q", kindTok.text)
	}
}

// parsePortDecl parses a Compute-IR stream-port declaration:
//
//	@main.p = addrSpace(12) ui18, !"istream", !"CONT", !0, !"strobj_p"
func (p *parser) parsePortDecl() error {
	nameTok, err := p.expect(tokGlobalID)
	if err != nil {
		return err
	}
	if err := p.expectPunct("="); err != nil {
		return err
	}
	if err := p.expectKeyword("addrSpace"); err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	space, err := p.parseInt()
	if err != nil {
		return err
	}
	if err := p.expectPunct(")"); err != nil {
		return err
	}
	port := &Port{Name: nameTok.text, AddrSpace: int(space), At: p.at(nameTok)}
	if port.Elem, err = p.parseType(); err != nil {
		return err
	}
	// Four metadata fields: direction, pattern, stride, stream object.
	meta := make([]token, 0, 4)
	for p.acceptPunct(",") {
		if err := p.expectPunct("!"); err != nil {
			return err
		}
		t := p.next()
		switch t.kind {
		case tokString, tokInt:
			meta = append(meta, t)
		case tokPunct:
			// signed stride like !-4
			if t.text == "-" || t.text == "+" {
				n, err2 := p.expect(tokInt)
				if err2 != nil {
					return err2
				}
				if t.text == "-" {
					n.text = "-" + n.text
				}
				meta = append(meta, n)
				continue
			}
			return p.errf(t, "invalid port metadata %q", t.text)
		default:
			return p.errf(t, "invalid port metadata %q", t.text)
		}
	}
	if len(meta) != 4 {
		return p.errf(nameTok, "port %s: want 4 metadata fields (dir, pattern, stride, stream), got %d", nameTok.text, len(meta))
	}
	switch meta[0].text {
	case "istream":
		port.Dir = DirIn
	case "ostream":
		port.Dir = DirOut
	default:
		return p.errf(meta[0], "port direction must be istream or ostream, found %q", meta[0].text)
	}
	if port.Pattern, err = ParseAccessPattern(meta[1].text); err != nil {
		return p.errf(meta[1], "%v", err)
	}
	stride, err := strconv.ParseInt(meta[2].text, 10, 64)
	if err != nil {
		return p.errf(meta[2], "invalid stride %q", meta[2].text)
	}
	port.Stride = stride
	port.Stream = meta[3].text
	p.mod.Ports = append(p.mod.Ports, port)
	return nil
}

// parseFunction parses:
//
//	define void @f0(ui18 %p, ui18 %rhs) pipe { body }
//
// The mode keyword is optional for @main (defaults to seq), mandatory
// otherwise.
func (p *parser) parseFunction() error {
	if err := p.expectKeyword("define"); err != nil {
		return err
	}
	if err := p.expectKeyword("void"); err != nil {
		return err
	}
	nameTok, err := p.expect(tokGlobalID)
	if err != nil {
		return err
	}
	fn := &Function{Name: nameTok.text, Mode: ModeSeq, At: p.at(nameTok)}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	for !p.acceptPunct(")") {
		if len(fn.Params) > 0 {
			if err := p.expectPunct(","); err != nil {
				return err
			}
		}
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		pn, err := p.expect(tokLocal)
		if err != nil {
			return err
		}
		fn.Params = append(fn.Params, Param{Name: pn.text, Ty: ty, At: p.at(pn)})
	}
	if t := p.peek(); t.kind == tokIdent {
		mode, err := ParseParMode(t.text)
		if err != nil {
			return p.errf(t, "%v", err)
		}
		fn.Mode = mode
		p.next()
	} else if fn.Name != "main" {
		return p.errf(t, "function @%s: missing parallelism keyword", fn.Name)
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !p.acceptPunct("}") {
		in, err := p.parseInstr()
		if err != nil {
			return err
		}
		fn.Body = append(fn.Body, in)
	}
	p.mod.Funcs = append(p.mod.Funcs, fn)
	return nil
}

// parseOperand parses %reg, @global or an integer immediate.
func (p *parser) parseOperand() (Operand, error) {
	t := p.peek()
	switch t.kind {
	case tokLocal:
		p.next()
		return Reg(t.text), nil
	case tokGlobalID:
		p.next()
		return Global(t.text), nil
	case tokInt:
		v, err := p.parseInt()
		if err != nil {
			return Operand{}, err
		}
		return Imm(v), nil
	case tokPunct:
		if t.text == "-" || t.text == "+" {
			v, err := p.parseInt()
			if err != nil {
				return Operand{}, err
			}
			return Imm(v), nil
		}
	}
	return Operand{}, p.errf(t, "expected operand, found %q", t.text)
}

// parseInstr parses one body instruction.
func (p *parser) parseInstr() (Instr, error) {
	t := p.peek()
	start := p.at(t)
	// call @f(args) mode
	if t.kind == tokIdent && t.text == "call" {
		p.next()
		callee, err := p.expect(tokGlobalID)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var args []Operand
		for !p.acceptPunct(")") {
			if len(args) > 0 {
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			a, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
		}
		modeTok, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		mode, err := ParseParMode(modeTok.text)
		if err != nil {
			return nil, p.errf(modeTok, "%v", err)
		}
		return &CallInstr{Callee: callee.text, Args: args, Mode: mode, At: start}, nil
	}

	// out <type> %port, <val>
	if t.kind == tokIdent && t.text == "out" {
		p.next()
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		portTok, err := p.expect(tokLocal)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		val, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return &OutInstr{Port: portTok.text, Ty: ty, Val: val, At: start}, nil
	}

	// All other instructions start with "<type> <dst> = ...".
	dstTy, err := p.parseType()
	if err != nil {
		return nil, err
	}
	dstTok := p.next()
	if dstTok.kind != tokLocal && dstTok.kind != tokGlobalID {
		return nil, p.errf(dstTok, "expected destination register, found %q", dstTok.text)
	}
	globalDst := dstTok.kind == tokGlobalID
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}

	t = p.peek()
	switch {
	case t.kind == tokIdent && t.text == "const":
		p.next()
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if ty != dstTy {
			return nil, p.errf(t, "const type %s does not match destination type %s", ty, dstTy)
		}
		v, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if globalDst {
			return nil, p.errf(dstTok, "const destination must be a local register")
		}
		return &ConstInstr{Dst: dstTok.text, Ty: dstTy, Val: v, At: start}, nil

	case t.kind == tokIdent && t.text == "icmp":
		p.next()
		predTok, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if !ValidCmpPred(predTok.text) {
			return nil, p.errf(predTok, "invalid icmp predicate %q", predTok.text)
		}
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		a, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		b, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if globalDst {
			return nil, p.errf(dstTok, "icmp destination must be a local register")
		}
		return &CmpInstr{Dst: dstTok.text, Pred: predTok.text, Ty: ty, A: a, B: b, At: start}, nil

	case t.kind == tokIdent && t.text == "select":
		p.next()
		if err := p.expectKeyword("ui1"); err != nil {
			return nil, err
		}
		cond, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		a, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		b, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if globalDst {
			return nil, p.errf(dstTok, "select destination must be a local register")
		}
		return &SelectInstr{Dst: dstTok.text, Cond: cond, Ty: ty, A: a, B: b, At: start}, nil

	case t.kind == tokIdent:
		// Unary or binary opcode.
		op, ok := ParseOpcode(t.text)
		if !ok {
			// Could be offset form: "<type> %src, !offset, !+N".
			break
		}
		p.next()
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		a, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if op.Info().Arity == 1 {
			if globalDst {
				return nil, p.errf(dstTok, "unary destination must be a local register")
			}
			return &UnInstr{Dst: dstTok.text, Op: op, Ty: ty, A: a, At: start}, nil
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		b, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return &BinInstr{Dst: dstTok.text, GlobalDst: globalDst, Op: op, Ty: ty, A: a, B: b, At: start}, nil
	}

	// Offset instruction: "<type> %dst = <type> %src, !offset, !+N".
	srcTy, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if srcTy != dstTy {
		return nil, p.errf(t, "offset source type %s does not match destination type %s", srcTy, dstTy)
	}
	src, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	if err := p.expectPunct("!"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("offset"); err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	if err := p.expectPunct("!"); err != nil {
		return nil, err
	}
	off, err := p.parseInt()
	if err != nil {
		return nil, err
	}
	if globalDst {
		return nil, p.errf(dstTok, "offset destination must be a local register")
	}
	return &OffsetInstr{Dst: dstTok.text, Ty: dstTy, Src: src, Offset: off, At: start}, nil
}
