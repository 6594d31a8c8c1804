package parser

import (
	"strings"

	"repro/internal/cpp/ast"
	"repro/internal/cpp/token"
)

// builtinCombinable are keywords that can combine into one fundamental
// type, e.g. `unsigned long long int`.
var builtinCombinable = map[string]bool{
	"unsigned": true, "signed": true, "long": true, "short": true,
	"int": true, "char": true, "double": true, "float": true,
	"bool": true, "void": true, "wchar_t": true, "auto": true,
	"char8_t": true, "char16_t": true, "char32_t": true,
}

// combinableSyms is builtinCombinable keyed by interned symbol: a dense
// bool table indexed by Symbol, sized to the largest member. All members
// are keywords, so the table is small and fixed at init.
var combinableSyms = func() []bool {
	max := token.Symbol(0)
	syms := make([]token.Symbol, 0, len(builtinCombinable))
	for w := range builtinCombinable {
		s := token.Intern(w)
		syms = append(syms, s)
		if s > max {
			max = s
		}
	}
	out := make([]bool, max+1)
	for _, s := range syms {
		out[s] = true
	}
	return out
}()

// atCombinable reports whether the current token is a combinable builtin
// type keyword, preferring the symbol table over the string map.
func (p *Parser) atCombinable() bool {
	if p.pos >= len(p.toks) {
		p.pastEnd = true
		return false
	}
	t := &p.toks[p.pos]
	if t.Kind != token.Keyword {
		return false
	}
	if t.Sym != token.NoSym {
		return int(t.Sym) < len(combinableSyms) && combinableSyms[t.Sym]
	}
	return builtinCombinable[t.Text]
}

// tryParseType attempts to parse a type at the cursor, returning nil
// (with the cursor restored) if the tokens do not form a type.
func (p *Parser) tryParseType() *ast.Type {
	save := p.pos
	t := p.arena.NewType()
	t.PosStart = p.curPos()

	for {
		switch {
		case p.acceptSym(kwConst, "const"):
			t.Const = true
		case p.acceptSym(kwVolatile, "volatile"):
			t.Volatile = true
		case p.acceptSym(kwTypename, "typename") || p.acceptSym(kwStruct, "struct") || p.acceptSym(kwClass, "class"):
			// elaborated type specifier / dependent-name marker
		default:
			goto qualsdone
		}
	}
qualsdone:

	switch {
	case p.atCombinable():
		first := p.next().Text
		if p.atCombinable() {
			parts := []string{first}
			for p.atCombinable() {
				parts = append(parts, p.next().Text)
			}
			t.Name = p.arena.QN1(strings.Join(parts, " "))
		} else {
			// Single-keyword builtins (int, double, void, ...) dominate;
			// skip the join and share the keyword's spelling.
			t.Name = p.arena.QN1(first)
		}
		t.Builtin = true
	case p.atSym(kwDecltype, "decltype"):
		p.next()
		start := p.curPos()
		p.skipBalanced(token.LParen, token.RParen)
		t.Name = p.arena.QN1("decltype")
		_ = start
	case p.at(token.Identifier):
		n, ok := p.tryParseQualifiedName(true)
		if !ok {
			p.pos = save
			return nil
		}
		t.Name = n
	default:
		p.pos = save
		return nil
	}

	// const can also follow the type name (east const).
	for {
		switch {
		case p.acceptSym(kwConst, "const"):
			t.Const = true
		case p.acceptSym(kwVolatile, "volatile"):
			t.Volatile = true
		default:
			goto postquals
		}
	}
postquals:

	for {
		switch p.curKind() {
		case token.Star:
			p.next()
			t.Pointer++
			p.acceptSym(kwConst, "const") // T* const
		case token.Amp:
			p.next()
			t.LValueRef = true
			goto done
		case token.AmpAmp:
			p.next()
			t.RValueRef = true
			goto done
		default:
			goto done
		}
	}
done:
	t.PosEnd = p.curPos()
	return t
}

// tryParseQualifiedName parses A::B<args>::C. If allowTrailingArgs is
// false, template arguments on the final segment are still parsed (they
// belong to the name); the flag is reserved for contexts that must not
// treat '<' as an argument list.
func (p *Parser) tryParseQualifiedName(allowTrailingArgs bool) (ast.QualifiedName, bool) {
	var q ast.QualifiedName
	if !p.at(token.Identifier) {
		return q, false
	}
	// Fast path: a single unqualified identifier with no template args —
	// the overwhelmingly common shape. One arena-backed segment, no loop.
	if k := p.peekKind(1); k != token.Less && k != token.ColonCol {
		return p.arena.QN1(p.next().Text), true
	}
	for {
		seg := ast.NameSegment{Name: p.expect(token.Identifier).Text}
		if p.at(token.Less) {
			if args, ok := p.tryParseTemplateArgs(); ok {
				seg.Args = args
			}
		}
		q.Segments = append(q.Segments, seg)
		if p.at(token.ColonCol) && p.peekKind(1) == token.Identifier {
			p.next()
			continue
		}
		// `::template foo` dependent names: skip 'template'.
		if p.at(token.ColonCol) && p.peekN(1).Is("template") {
			p.next()
			p.next()
			continue
		}
		break
	}
	return q, true
}

// tryParseTemplateArgs parses <arg, ...> with backtracking; returns
// ok=false (cursor restored) when the '<' turns out to be a comparison.
func (p *Parser) tryParseTemplateArgs() ([]ast.TemplateArg, bool) {
	save := p.pos
	savedToks := p.toks // splitShr mutates the slice; keep the original
	p.expect(token.Less)
	var args []ast.TemplateArg
	if p.at(token.Greater) { // empty list: foo<>
		p.next()
		return args, true
	}
	for {
		if p.at(token.Shr) {
			p.splitShr()
		}
		if p.at(token.Greater) {
			break
		}
		arg, ok := p.tryParseTemplateArg()
		if !ok {
			p.toks = savedToks
			p.pos = save
			return nil, false
		}
		args = append(args, arg)
		if p.at(token.Shr) {
			p.splitShr()
		}
		if p.accept(token.Comma) {
			continue
		}
		break
	}
	if p.at(token.Shr) {
		p.splitShr()
	}
	if !p.accept(token.Greater) {
		p.toks = savedToks
		p.pos = save
		return nil, false
	}
	return args, true
}

func (p *Parser) tryParseTemplateArg() (ast.TemplateArg, bool) {
	// Try a type first (most args in the corpora are types).
	save := p.pos
	if t := p.tryParseType(); t != nil {
		// A type arg must be followed by ',' '>' or '>>'.
		if p.at(token.Comma) || p.at(token.Greater) || p.at(token.Shr) {
			return ast.TemplateArg{Type: t}, true
		}
		p.pos = save
	}
	// Constant expression argument (no '>' comparisons inside, per C++).
	e := p.parseShiftFreeExpr()
	if e == nil {
		return ast.TemplateArg{}, false
	}
	if p.at(token.Comma) || p.at(token.Greater) || p.at(token.Shr) {
		return ast.TemplateArg{Expr: e}, true
	}
	return ast.TemplateArg{}, false
}
