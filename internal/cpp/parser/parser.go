// Package parser implements a recursive-descent parser for the C++ subset
// the Header Substitution engine must understand: namespaces, classes and
// class templates, fields, methods (including operator overloads and
// out-of-line definitions), free functions and function templates, type
// aliases, enums, variables, and full function bodies with expressions and
// lambdas. It parses the preprocessed token stream; node positions point
// into the original files, enabling in-place rewriting.
package parser

import (
	"fmt"
	"slices"

	"repro/internal/cpp/ast"
	"repro/internal/cpp/token"
	"repro/internal/obs"
)

// Parser parses one token stream into a TranslationUnit.
type Parser struct {
	toks []token.Token
	pos  int
	errs []error
	// pastEnd records that a read fell off the end of toks. ParseSplit
	// uses it to find the declarations a cut stream could not complete.
	pastEnd bool
	// class stack for nested-class parenting
	classStack []*ast.ClassDecl
	// arena batch-allocates the AST nodes of this translation unit; the
	// whole tree is freed in slab-sized units when the TU is dropped.
	arena ast.Arena
	// Obs, when non-nil, records a span + counters per Parse. The nil
	// default is a zero-cost no-op.
	Obs *obs.Obs
}

// New returns a parser over toks (which must end with an EOF token, as
// produced by the lexer or preprocessor).
func New(toks []token.Token) *Parser {
	return &Parser{toks: toks}
}

// Parse parses a full translation unit. Parsing is error-tolerant: on a
// syntax error the parser records it and skips to a likely recovery point;
// the first error (if any) is returned alongside the partial tree.
func (p *Parser) Parse() (*ast.TranslationUnit, error) {
	sp := p.Obs.Start("parse")
	sp.SetInt("tokens", int64(len(p.toks)))
	defer sp.End()
	tu := &ast.TranslationUnit{}
	p.parseDecls(tu)
	return p.finish(tu, sp)
}

// parseDecls parses top-level declarations into tu until EOF.
func (p *Parser) parseDecls(tu *ast.TranslationUnit) {
	for !p.at(token.EOF) {
		p.parseTopDecl(tu)
	}
}

// parseTopDecl parses one top-level declaration into tu.
func (p *Parser) parseTopDecl(tu *ast.TranslationUnit) {
	start := p.pos
	d := p.parseDecl()
	if d != nil {
		tu.Decls = append(tu.Decls, d)
	}
	if p.pos == start {
		p.errorf("stuck at token %v", p.cur())
		p.next()
	}
}

// finish records the parse of tu and returns it with the first error.
func (p *Parser) finish(tu *ast.TranslationUnit, sp *obs.Span) (*ast.TranslationUnit, error) {
	sp.SetInt("decls", int64(len(tu.Decls)))
	p.Obs.Counter("parser.units").Add(1)
	if len(p.errs) > 0 {
		return tu, p.errs[0]
	}
	return tu, nil
}

// Resume is where a parse split at a token count n picks up: the
// top-level declarations that read no token at index n or beyond, and
// the index, in the unsplit stream, of the first one that did. Any
// stream that begins with the same n tokens parses to those
// declarations followed by the parse of its tokens from that index on;
// ParseFrom parses it that way. A Resume is immutable and may be shared.
type Resume struct {
	// Decls are the reusable declarations, shared by every tree parsed
	// from the Resume.
	Decls []ast.Decl
	errs  []error
	at    int
	// shr lists, ascending, the '>>' tokens at index at or beyond that
	// the reusable declarations split into '> >' (see splitShr).
	shr []int
}

// ParseSplit is Parse, done in two phases: it first parses the stream
// cut after n tokens, keeps the declarations that never read past the
// cut, and continues on the full stream from the start of the first one
// that did, dropping that declaration's first-phase errors. The tree and
// error are Parse's; the Resume records the split for ParseFrom, and is
// nil when the reusable declarations cannot be replayed.
func (p *Parser) ParseSplit(n int) (*ast.TranslationUnit, *Resume, error) {
	sp := p.Obs.Start("parse")
	sp.SetInt("tokens", int64(len(p.toks)))
	defer sp.End()
	full := p.toks
	if n > len(full) {
		n = len(full)
	}
	tu := &ast.TranslationUnit{}
	p.toks = full[:n]
	var cut []token.Token
	var start int
	for {
		cut, start = p.toks, p.pos
		if p.at(token.EOF) {
			break
		}
		ndecls, nerrs := len(tu.Decls), len(p.errs)
		p.pastEnd = false
		p.parseTopDecl(tu)
		if p.pastEnd {
			tu.Decls, p.errs = tu.Decls[:ndecls], p.errs[:nerrs]
			break
		}
	}
	// Continue on the full stream from start: cut, the stream as the
	// reusable declarations left it, followed by the rest.
	r := &Resume{Decls: slices.Clip(tu.Decls), errs: slices.Clip(p.errs)}
	if len(cut) == n {
		p.toks = full
		r.at = start
	} else {
		p.toks = append(cut[:len(cut):len(cut)], full[n:]...)
		r = r.mapSplits(cut, full[:n], start)
	}
	p.pos = start
	p.parseDecls(tu)
	tu, err := p.finish(tu, sp)
	return tu, r, err
}

// mapSplits sets r.at to the index in orig of index start in cut, a
// copy of orig in which splitShr replaced some '>>' tokens by two '>',
// and records those at r.at or beyond in r.shr. It returns nil when
// start falls between the halves of a split '>>'.
func (r *Resume) mapSplits(cut, orig []token.Token, start int) *Resume {
	i, j := 0, 0
	for ; i < len(cut); i, j = i+1, j+1 {
		if i == start {
			r.at = j
		}
		if j < len(orig) && orig[j].Kind == token.Shr && cut[i].Kind == token.Greater {
			if i+1 == start {
				return nil
			}
			if i >= start {
				r.shr = append(r.shr, j)
			}
			i++
		}
	}
	if i == start {
		r.at = j
	}
	return r
}

// ParseFrom parses p's stream, which must begin with the tokens r was
// split at, to the tree Parse would: r's declarations, then a parse of
// the stream from r's index on.
func (p *Parser) ParseFrom(r *Resume) (*ast.TranslationUnit, error) {
	sp := p.Obs.Start("parse")
	sp.SetInt("tokens", int64(len(p.toks)))
	sp.SetInt("resumed", 1)
	defer sp.End()
	tu := &ast.TranslationUnit{Decls: slices.Clone(r.Decls)}
	p.errs = slices.Clone(r.errs)
	for k := len(r.shr) - 1; k >= 0; k-- {
		p.pos = r.shr[k]
		p.splitShr()
	}
	p.pos = r.at
	p.parseDecls(tu)
	return p.finish(tu, sp)
}

// ------------------------------------------------------------ utilities

// Pre-interned spellings for the parser's word dispatch. Matching the
// current token against one of these is an integer compare instead of a
// string compare (see atSym).
var (
	kwBreak        = token.Intern("break")
	kwCase         = token.Intern("case")
	kwClass        = token.Intern("class")
	kwConst        = token.Intern("const")
	kwConstexpr    = token.Intern("constexpr")
	kwContinue     = token.Intern("continue")
	kwDecltype     = token.Intern("decltype")
	kwDefault      = token.Intern("default")
	kwDelete       = token.Intern("delete")
	kwDo           = token.Intern("do")
	kwElse         = token.Intern("else")
	kwEnum         = token.Intern("enum")
	kwExplicit     = token.Intern("explicit")
	kwExtern       = token.Intern("extern")
	kwFinal        = token.Intern("final")
	kwFor          = token.Intern("for")
	kwFriend       = token.Intern("friend")
	kwIf           = token.Intern("if")
	kwInline       = token.Intern("inline")
	kwMutable      = token.Intern("mutable")
	kwNamespace    = token.Intern("namespace")
	kwNew          = token.Intern("new")
	kwNoexcept     = token.Intern("noexcept")
	kwOperator     = token.Intern("operator")
	kwOverride     = token.Intern("override")
	kwPrivate      = token.Intern("private")
	kwProtected    = token.Intern("protected")
	kwPublic       = token.Intern("public")
	kwReturn       = token.Intern("return")
	kwSizeof       = token.Intern("sizeof")
	kwStatic       = token.Intern("static")
	kwStaticAssert = token.Intern("static_assert")
	kwStruct       = token.Intern("struct")
	kwSwitch       = token.Intern("switch")
	kwTemplate     = token.Intern("template")
	kwTypedef      = token.Intern("typedef")
	kwTypename     = token.Intern("typename")
	kwUnion        = token.Intern("union")
	kwUsing        = token.Intern("using")
	kwVirtual      = token.Intern("virtual")
	kwVolatile     = token.Intern("volatile")
	kwWhile        = token.Intern("while")
)

// The readers below return EOF past the end of the stream and record
// that they did (see pastEnd); in range they do nothing else.

func (p *Parser) cur() token.Token {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	p.pastEnd = true
	return token.Token{Kind: token.EOF}
}

// curKind/curPos/curEnd read a single field of the current token without
// copying the whole Token — the parser's innermost loops dispatch on
// these.
func (p *Parser) curKind() token.Kind {
	if p.pos < len(p.toks) {
		return p.toks[p.pos].Kind
	}
	p.pastEnd = true
	return token.EOF
}

func (p *Parser) curPos() token.Pos {
	if p.pos < len(p.toks) {
		return p.toks[p.pos].Pos
	}
	p.pastEnd = true
	return token.Pos{}
}

func (p *Parser) curEnd() token.Pos {
	if p.pos < len(p.toks) {
		return p.toks[p.pos].End()
	}
	p.pastEnd = true
	return token.Pos{}
}

func (p *Parser) peekN(n int) token.Token {
	if p.pos+n < len(p.toks) {
		return p.toks[p.pos+n]
	}
	p.pastEnd = true
	return token.Token{Kind: token.EOF}
}

func (p *Parser) peekKind(n int) token.Kind {
	if p.pos+n < len(p.toks) {
		return p.toks[p.pos+n].Kind
	}
	p.pastEnd = true
	return token.EOF
}

func (p *Parser) at(k token.Kind) bool {
	if p.pos < len(p.toks) {
		return p.toks[p.pos].Kind == k
	}
	p.pastEnd = true
	return k == token.EOF
}

func (p *Parser) atWord(w string) bool { return p.cur().Is(w) }

// atSym reports whether the current token is the identifier/keyword w,
// pre-interned as sym. Lexed tokens carry their symbol, so the match is
// one integer compare; tokens minted elsewhere (token pastes, PCH blobs,
// hand-built tests) have no symbol and fall back to the spelling.
func (p *Parser) atSym(sym token.Symbol, w string) bool {
	if p.pos >= len(p.toks) {
		p.pastEnd = true
		return false
	}
	t := &p.toks[p.pos]
	if t.Kind != token.Keyword && t.Kind != token.Identifier {
		return false
	}
	if t.Sym != token.NoSym {
		return t.Sym == sym
	}
	return t.Text == w
}

func (p *Parser) next() token.Token {
	if p.pos < len(p.toks) {
		t := p.toks[p.pos]
		p.pos++
		return t
	}
	p.pastEnd = true
	return token.Token{Kind: token.EOF}
}

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) acceptWord(w string) bool {
	if p.atWord(w) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) acceptSym(sym token.Symbol, w string) bool {
	if p.atSym(sym, w) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %v, found %v", k, p.cur())
	return p.cur()
}

func (p *Parser) errorf(format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("%s: %s", p.curPos(), fmt.Sprintf(format, args...)))
}

// splitShr turns the current '>>' token into '>' so nested template
// argument lists can close one level at a time. The rewritten stream is
// always a fresh slice: the input tokens may be shared (build cache, PCH
// blobs), so the caller's backing array must never be written.
func (p *Parser) splitShr() {
	t := p.toks[p.pos]
	if t.Kind != token.Shr {
		return
	}
	g1 := token.Token{Kind: token.Greater, Text: ">", Pos: t.Pos}
	p2 := t.Pos
	p2.Offset++
	p2.Col++
	g2 := token.Token{Kind: token.Greater, Text: ">", Pos: p2}
	out := make([]token.Token, 0, len(p.toks)+1)
	out = append(out, p.toks[:p.pos]...)
	out = append(out, g1, g2)
	out = append(out, p.toks[p.pos+1:]...)
	p.toks = out
}

// skipBalanced consumes tokens until the matching closer for the opener
// at the cursor, or EOF.
func (p *Parser) skipBalanced(open, close token.Kind) {
	depth := 0
	for !p.at(token.EOF) {
		switch p.curKind() {
		case open:
			depth++
		case close:
			depth--
			if depth == 0 {
				p.next()
				return
			}
		}
		p.next()
	}
}

// skipToRecovery advances past the next ';' at brace depth 0, or past a
// balanced '{...}' block.
func (p *Parser) skipToRecovery() {
	depth := 0
	for !p.at(token.EOF) {
		switch p.curKind() {
		case token.LBrace:
			depth++
		case token.RBrace:
			if depth == 0 {
				return
			}
			depth--
			if depth == 0 {
				p.next()
				return
			}
		case token.Semi:
			if depth == 0 {
				p.next()
				return
			}
		}
		p.next()
	}
}

// ----------------------------------------------------------- decl level

func (p *Parser) parseDecl() ast.Decl {
	switch {
	case p.at(token.Semi):
		p.next()
		return nil
	case p.atSym(kwNamespace, "namespace"):
		return p.parseNamespace()
	case p.atSym(kwTemplate, "template"):
		return p.parseTemplated()
	case p.atSym(kwClass, "class") || p.atSym(kwStruct, "struct") || p.atSym(kwUnion, "union"):
		return p.parseClassOrVar(nil)
	case p.atSym(kwEnum, "enum"):
		return p.parseEnum()
	case p.atSym(kwUsing, "using"):
		return p.parseUsing()
	case p.atSym(kwTypedef, "typedef"):
		return p.parseTypedef()
	case p.atSym(kwStaticAssert, "static_assert"):
		return p.parseStaticAssert()
	case p.atSym(kwExtern, "extern"):
		// extern "C" { ... } or extern declaration
		save := p.pos
		p.next()
		if p.at(token.StringLit) {
			p.next()
			if p.at(token.LBrace) {
				// Treat as a transparent block: parse decls inline by
				// flattening into a namespace with empty name.
				ns := &ast.NamespaceDecl{}
				ns.Start = p.curPos()
				p.next()
				for !p.at(token.RBrace) && !p.at(token.EOF) {
					if d := p.parseDecl(); d != nil {
						ns.Decls = append(ns.Decls, d)
					}
				}
				ns.Stop = p.curPos()
				p.expect(token.RBrace)
				return ns
			}
			return p.parseFunctionOrVariable(nil)
		}
		p.pos = save
		return p.parseFunctionOrVariable(nil)
	case p.atSym(kwFriend, "friend"):
		// Friend declarations are irrelevant to the analysis; skip.
		p.skipToRecovery()
		return nil
	}
	return p.parseFunctionOrVariable(nil)
}

func (p *Parser) parseNamespace() ast.Decl {
	start := p.curPos()
	p.next() // namespace
	ns := &ast.NamespaceDecl{}
	ns.Start = start
	if p.at(token.Identifier) {
		ns.Name = p.next().Text
	}
	// Nested namespace definition: namespace A::B { ... } — one level of
	// :: nesting is modeled, which covers the corpora.
	for p.accept(token.ColonCol) {
		inner := &ast.NamespaceDecl{Name: p.expect(token.Identifier).Text}
		inner.Start = start
		ns.Decls = append(ns.Decls, inner)
		p.expect(token.LBrace)
		for !p.at(token.RBrace) && !p.at(token.EOF) {
			if d := p.parseDecl(); d != nil {
				inner.Decls = append(inner.Decls, d)
			}
		}
		inner.Stop = p.curPos()
		ns.Stop = p.curPos()
		p.expect(token.RBrace)
		return ns
	}
	p.expect(token.LBrace)
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		if d := p.parseDecl(); d != nil {
			ns.Decls = append(ns.Decls, d)
		}
	}
	ns.Stop = p.curPos()
	p.expect(token.RBrace)
	return ns
}

// parseTemplated handles template<...> class/function declarations and
// explicit instantiations (`template` not followed by `<`).
func (p *Parser) parseTemplated() ast.Decl {
	start := p.curPos()
	p.next() // template
	if !p.at(token.Less) {
		return p.parseExplicitInstantiation(start)
	}
	params := p.parseTemplateParams()
	switch {
	case p.atSym(kwClass, "class") || p.atSym(kwStruct, "struct") || p.atSym(kwUnion, "union"):
		d := p.parseClassOrVar(params)
		if c, ok := d.(*ast.ClassDecl); ok {
			c.Start = start
		}
		return d
	case p.atSym(kwUsing, "using"):
		// alias template: template<...> using X = ...;
		d := p.parseUsing()
		return d
	default:
		d := p.parseFunctionOrVariable(params)
		if f, ok := d.(*ast.FunctionDecl); ok {
			f.Start = start
		}
		return d
	}
}

func (p *Parser) parseTemplateParams() []ast.TemplateParam {
	p.expect(token.Less)
	var out []ast.TemplateParam
	for !p.at(token.Greater) && !p.at(token.EOF) {
		if p.at(token.Shr) {
			p.splitShr()
			break
		}
		var tp ast.TemplateParam
		switch {
		case p.atSym(kwTypename, "typename") || p.atSym(kwClass, "class"):
			tp.Kind = p.next().Text
			// template-template params: template<class> class X
			if p.at(token.Less) {
				p.skipBalanced(token.Less, token.Greater)
			}
		case p.atSym(kwTemplate, "template"):
			p.next()
			p.skipBalanced(token.Less, token.Greater)
			if p.atSym(kwClass, "class") || p.atSym(kwTypename, "typename") {
				p.next()
			}
			tp.Kind = "template"
		default:
			// non-type parameter: a type then a name
			t := p.tryParseType()
			if t == nil {
				p.errorf("bad template parameter")
				p.next()
				continue
			}
			tp.Kind = t.String()
		}
		if p.accept(token.Ellipsis) {
			tp.Pack = true
		}
		if p.at(token.Identifier) {
			tp.Name = p.next().Text
		}
		if p.accept(token.Assign) {
			// default argument: skip to ',' or '>' at depth 0
			depth := 0
			var def []string
			for !p.at(token.EOF) {
				k := p.curKind()
				if depth == 0 && (k == token.Comma || k == token.Greater || k == token.Shr) {
					break
				}
				switch k {
				case token.Less, token.LParen:
					depth++
				case token.Greater, token.RParen:
					depth--
				}
				def = append(def, p.next().Text)
			}
			for i, s := range def {
				if i > 0 {
					tp.Default_ += " "
				}
				tp.Default_ += s
			}
		}
		out = append(out, tp)
		if !p.accept(token.Comma) {
			break
		}
	}
	if p.at(token.Shr) {
		p.splitShr()
	}
	p.expect(token.Greater)
	return out
}

// parseExplicitInstantiation parses `template class C<...>;` or
// `template Ret name<...>(params);`.
func (p *Parser) parseExplicitInstantiation(start token.Pos) ast.Decl {
	ei := &ast.ExplicitInstantiation{}
	ei.Start = start
	if p.atSym(kwClass, "class") || p.atSym(kwStruct, "struct") {
		ei.IsClass = true
		p.next()
		n, ok := p.tryParseQualifiedName(true)
		if !ok {
			p.errorf("bad explicit class instantiation")
			p.skipToRecovery()
			return nil
		}
		ei.Name = n
		ei.Stop = p.curPos()
		p.expect(token.Semi)
		return ei
	}
	rt := p.tryParseType()
	if rt == nil {
		p.errorf("bad explicit instantiation")
		p.skipToRecovery()
		return nil
	}
	ei.ReturnType = rt
	n, ok := p.tryParseQualifiedName(true)
	if !ok {
		p.errorf("bad explicit instantiation name")
		p.skipToRecovery()
		return nil
	}
	ei.Name = n
	if p.at(token.LParen) {
		ei.Params = p.parseParamList()
	}
	ei.Stop = p.curPos()
	p.expect(token.Semi)
	return ei
}

// parseClassOrVar parses a class definition/declaration; it also covers
// `struct X { } x;` by ignoring the trailing declarator (not used in the
// corpora).
func (p *Parser) parseClassOrVar(tparams []ast.TemplateParam) ast.Decl {
	start := p.curPos()
	kw := p.next().Text
	c := &ast.ClassDecl{Keyword: kw, TemplateParams: tparams}
	c.Start = start
	if p.at(token.Identifier) {
		c.Name = p.next().Text
	}
	// template specialization name: Name<...> — skip the args.
	if p.at(token.Less) {
		p.skipBalanced(token.Less, token.Greater)
	}
	if p.accept(token.Colon) {
		// base clause
		for {
			p.acceptSym(kwPublic, "public")
			p.acceptSym(kwPrivate, "private")
			p.acceptSym(kwProtected, "protected")
			p.acceptSym(kwVirtual, "virtual")
			if n, ok := p.tryParseQualifiedName(true); ok {
				c.Bases = append(c.Bases, n)
			} else {
				p.errorf("bad base class")
				break
			}
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	if p.at(token.LBrace) {
		c.IsDefinition = true
		if len(p.classStack) > 0 {
			c.Parent = p.classStack[len(p.classStack)-1]
		}
		p.classStack = append(p.classStack, c)
		p.next()
		access := ast.Private
		if kw == "struct" || kw == "union" {
			access = ast.Public
		}
		for !p.at(token.RBrace) && !p.at(token.EOF) {
			switch {
			case p.atSym(kwPublic, "public"):
				p.next()
				p.expect(token.Colon)
				access = ast.Public
			case p.atSym(kwPrivate, "private"):
				p.next()
				p.expect(token.Colon)
				access = ast.Private
			case p.atSym(kwProtected, "protected"):
				p.next()
				p.expect(token.Colon)
				access = ast.Protected
			default:
				m := p.parseMember(c, access)
				if m != nil {
					c.Members = append(c.Members, m)
				}
			}
		}
		p.classStack = p.classStack[:len(p.classStack)-1]
		p.expect(token.RBrace)
	}
	c.Stop = p.curPos()
	p.expect(token.Semi)
	return c
}

// parseMember parses one class member.
func (p *Parser) parseMember(c *ast.ClassDecl, access ast.AccessSpec) ast.Decl {
	start := p.pos
	switch {
	case p.at(token.Semi):
		p.next()
		return nil
	case p.atSym(kwTemplate, "template"):
		d := p.parseTemplated()
		if f, ok := d.(*ast.FunctionDecl); ok {
			f.Class = c
			f.Access = access
		}
		if nc, ok := d.(*ast.ClassDecl); ok {
			nc.Parent = c
		}
		return d
	case p.atSym(kwClass, "class") || p.atSym(kwStruct, "struct") || p.atSym(kwUnion, "union"):
		d := p.parseClassOrVar(nil)
		if nc, ok := d.(*ast.ClassDecl); ok {
			nc.Parent = c
		}
		return d
	case p.atSym(kwEnum, "enum"):
		return p.parseEnum()
	case p.atSym(kwUsing, "using"):
		return p.parseUsing()
	case p.atSym(kwTypedef, "typedef"):
		return p.parseTypedef()
	case p.atSym(kwStaticAssert, "static_assert"):
		return p.parseStaticAssert()
	case p.atSym(kwFriend, "friend"):
		p.skipToRecovery()
		return nil
	}

	// Specifiers.
	var isStatic, isVirtual, isInline, isConstexpr, isMutable bool
	for {
		switch {
		case p.acceptSym(kwStatic, "static"):
			isStatic = true
		case p.acceptSym(kwVirtual, "virtual"):
			isVirtual = true
		case p.acceptSym(kwInline, "inline"):
			isInline = true
		case p.acceptSym(kwConstexpr, "constexpr"):
			isConstexpr = true
		case p.acceptSym(kwMutable, "mutable"):
			isMutable = true
		case p.acceptSym(kwExplicit, "explicit"):
		default:
			goto specdone
		}
	}
specdone:
	_ = isMutable

	// Destructor: ~Name(...)
	if p.at(token.Tilde) {
		p.next()
		name := "~" + p.expect(token.Identifier).Text
		f := p.arena.NewFunctionDecl()
		f.Name, f.Class, f.Access = name, c, access
		f.Start = p.toks[start].Pos
		f.NamePos = p.curPos()
		f.Params = p.parseParamList()
		p.finishFunction(f)
		return f
	}

	// Constructor: Name(...) where Name == class name and next is '('.
	if p.at(token.Identifier) && p.cur().Text == c.Name && p.peekKind(1) == token.LParen {
		name := p.next().Text
		f := p.arena.NewFunctionDecl()
		f.Name, f.Class, f.Access = name, c, access
		f.Start = p.toks[start].Pos
		f.Params = p.parseParamList()
		p.finishFunction(f)
		return f
	}

	// Otherwise: type followed by member name or operator.
	t := p.tryParseType()
	if t == nil {
		p.errorf("cannot parse member declaration near %v", p.cur())
		p.skipToRecovery()
		return nil
	}
	// operator overload
	if p.atSym(kwOperator, "operator") {
		f := p.parseOperatorFunction(t)
		f.Class = c
		f.Access = access
		f.Static, f.Virtual, f.Inline, f.Constexpr = isStatic, isVirtual, isInline, isConstexpr
		f.Start = p.toks[start].Pos
		return f
	}
	if !p.at(token.Identifier) {
		p.errorf("expected member name, found %v", p.cur())
		p.skipToRecovery()
		return nil
	}
	namePos := p.curPos()
	name := p.next().Text
	if p.at(token.LParen) {
		f := p.arena.NewFunctionDecl()
		f.Name, f.ReturnType, f.Class, f.Access = name, t, c, access
		f.Static, f.Virtual, f.Inline, f.Constexpr = isStatic, isVirtual, isInline, isConstexpr
		f.Start = p.toks[start].Pos
		f.NamePos = namePos
		f.Params = p.parseParamList()
		p.finishFunction(f)
		return f
	}
	// Field (possibly with array suffix / initializer).
	fd := p.arena.NewFieldDecl()
	fd.Name, fd.Type, fd.Access, fd.Static = name, t, access, isStatic
	fd.Start = p.toks[start].Pos
	for p.at(token.LBracket) {
		p.skipBalanced(token.LBracket, token.RBracket)
	}
	if p.accept(token.Assign) {
		fd.Init = p.parseExpr()
	} else if p.at(token.LBrace) {
		fd.Init = p.parseBracedInit(ast.QualifiedName{})
	}
	fd.Stop = p.curPos()
	p.expect(token.Semi)
	return fd
}

// finishFunction parses everything after the parameter list: const,
// noexcept, override, trailing return, ctor-initializers, = default, and
// the body or ';'.
func (p *Parser) finishFunction(f *ast.FunctionDecl) {
	for {
		switch {
		case p.acceptSym(kwConst, "const"):
			f.Const = true
		case p.acceptSym(kwNoexcept, "noexcept"):
			if p.at(token.LParen) {
				p.skipBalanced(token.LParen, token.RParen)
			}
		case p.atSym(kwOverride, "override") || p.atSym(kwFinal, "final"):
			p.next()
		case p.at(token.Amp) || p.at(token.AmpAmp):
			p.next()
		case p.at(token.Arrow):
			p.next()
			f.ReturnType = p.tryParseType()
		default:
			goto done
		}
	}
done:
	if p.accept(token.Assign) {
		// = default / = delete / = 0
		p.next()
		f.Stop = p.curPos()
		p.expect(token.Semi)
		return
	}
	if p.at(token.Colon) {
		// ctor-initializer list: skip to body
		p.next()
		for !p.at(token.LBrace) && !p.at(token.EOF) {
			if p.at(token.LParen) {
				p.skipBalanced(token.LParen, token.RParen)
			} else if p.at(token.LBrace) {
				break
			} else {
				p.next()
			}
		}
	}
	if p.at(token.LBrace) {
		f.IsDefinition = true
		f.Body = p.parseCompound()
		f.Stop = f.Body.End()
		p.accept(token.Semi)
		return
	}
	f.Stop = p.curPos()
	p.expect(token.Semi)
}

// parseOperatorFunction parses `operator <spelling> (params)...` with the
// return type already parsed.
func (p *Parser) parseOperatorFunction(ret *ast.Type) *ast.FunctionDecl {
	opPos := p.curPos()
	p.next() // operator
	spell := ""
	switch p.curKind() {
	case token.LParen:
		// operator()
		if p.peekKind(1) == token.RParen {
			p.next()
			p.next()
			spell = "()"
		}
	case token.LBracket:
		p.next()
		p.expect(token.RBracket)
		spell = "[]"
	default:
		// single punctuator operator: +, -, ==, +=, <<, etc.
		spell = p.next().Text
	}
	f := p.arena.NewFunctionDecl()
	f.Name = "operator" + spell
	f.ReturnType = ret
	f.IsOperator = true
	f.OperatorSpell = spell
	f.NamePos = opPos
	f.Start = opPos
	f.Params = p.parseParamList()
	p.finishFunction(f)
	return f
}

func (p *Parser) parseParamList() []ast.ParamDecl {
	p.expect(token.LParen)
	var out []ast.ParamDecl
	for !p.at(token.RParen) && !p.at(token.EOF) {
		if p.accept(token.Ellipsis) {
			out = append(out, ast.ParamDecl{Name: "..."})
			break
		}
		t := p.tryParseType()
		if t == nil {
			p.errorf("bad parameter near %v", p.cur())
			p.skipBalanced(token.LParen, token.RParen)
			return out
		}
		var pd ast.ParamDecl
		pd.Type = t
		if p.accept(token.Ellipsis) {
			// parameter pack
		}
		if p.at(token.Identifier) {
			pd.Name = p.next().Text
		}
		for p.at(token.LBracket) {
			p.skipBalanced(token.LBracket, token.RBracket)
		}
		if p.accept(token.Assign) {
			pd.Default = p.parseAssignExpr()
		}
		out = append(out, pd)
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.RParen)
	return out
}

func (p *Parser) parseEnum() ast.Decl {
	start := p.curPos()
	p.next() // enum
	e := &ast.EnumDecl{}
	e.Start = start
	if p.acceptSym(kwClass, "class") || p.acceptSym(kwStruct, "struct") {
		e.Scoped = true
	}
	if p.at(token.Identifier) {
		e.Name = p.next().Text
	}
	if p.accept(token.Colon) {
		t := p.tryParseType()
		if t != nil {
			e.Underlying = t.String()
		}
	}
	if p.at(token.LBrace) {
		p.next()
		for !p.at(token.RBrace) && !p.at(token.EOF) {
			item := ast.Enumerator{Name: p.expect(token.Identifier).Text}
			if p.accept(token.Assign) {
				item.Value = p.parseAssignExpr()
			}
			e.Items = append(e.Items, item)
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.RBrace)
	}
	e.Stop = p.curPos()
	p.expect(token.Semi)
	return e
}

func (p *Parser) parseUsing() ast.Decl {
	start := p.curPos()
	p.next() // using
	if p.acceptSym(kwNamespace, "namespace") {
		u := &ast.UsingDecl{IsNamespace: true}
		u.Start = start
		n, _ := p.tryParseQualifiedName(false)
		u.Name = n
		u.Stop = p.curPos()
		p.expect(token.Semi)
		return u
	}
	// `using X = type;` vs `using N::X;`
	if p.at(token.Identifier) && p.peekKind(1) == token.Assign {
		a := &ast.AliasDecl{Name: p.next().Text}
		a.Start = start
		p.expect(token.Assign)
		a.Target = p.tryParseType()
		if a.Target == nil {
			p.errorf("bad alias target")
			p.skipToRecovery()
			return a
		}
		a.Stop = p.curPos()
		p.expect(token.Semi)
		return a
	}
	u := &ast.UsingDecl{}
	u.Start = start
	n, ok := p.tryParseQualifiedName(true)
	if !ok {
		p.errorf("bad using-declaration")
		p.skipToRecovery()
		return nil
	}
	u.Name = n
	u.Stop = p.curPos()
	p.expect(token.Semi)
	return u
}

func (p *Parser) parseTypedef() ast.Decl {
	start := p.curPos()
	p.next() // typedef
	t := p.tryParseType()
	if t == nil {
		p.errorf("bad typedef")
		p.skipToRecovery()
		return nil
	}
	a := &ast.AliasDecl{Target: t}
	a.Start = start
	if p.at(token.Identifier) {
		a.Name = p.next().Text
	}
	a.Stop = p.curPos()
	p.expect(token.Semi)
	return a
}

func (p *Parser) parseStaticAssert() ast.Decl {
	start := p.curPos()
	p.next()
	sa := &ast.StaticAssertDecl{}
	sa.Start = start
	p.expect(token.LParen)
	sa.Cond = p.parseAssignExpr()
	if p.accept(token.Comma) {
		p.parseAssignExpr() // message
	}
	p.expect(token.RParen)
	sa.Stop = p.curPos()
	p.expect(token.Semi)
	return sa
}

// parseFunctionOrVariable parses a namespace-scope function or variable
// declaration (with optional template params already parsed).
func (p *Parser) parseFunctionOrVariable(tparams []ast.TemplateParam) ast.Decl {
	start := p.pos
	var isStatic, isInline, isConstexpr bool
	for {
		switch {
		case p.acceptSym(kwStatic, "static"):
			isStatic = true
		case p.acceptSym(kwInline, "inline"):
			isInline = true
		case p.acceptSym(kwConstexpr, "constexpr"):
			isConstexpr = true
		case p.acceptSym(kwExtern, "extern"):
		default:
			goto specdone
		}
	}
specdone:
	t := p.tryParseType()
	if t == nil {
		p.errorf("cannot parse declaration near %v", p.cur())
		p.skipToRecovery()
		return nil
	}
	if p.atSym(kwOperator, "operator") {
		// free operator overload
		f := p.parseOperatorFunction(t)
		f.TemplateParams = tparams
		f.Static, f.Inline, f.Constexpr = isStatic, isInline, isConstexpr
		if start < len(p.toks) {
			f.Start = p.toks[start].Pos
		}
		return f
	}
	// Possibly-qualified declarator name (out-of-line method defs).
	name, ok := p.tryParseQualifiedName(false)
	if !ok {
		p.errorf("expected declarator name near %v", p.cur())
		p.skipToRecovery()
		return nil
	}
	// `void add_y::operator()(...)` — qualified name then ::operator.
	if p.at(token.ColonCol) && p.peekN(1).Is("operator") {
		p.next() // ::
		f := p.parseOperatorFunction(t)
		f.QualifierName = name
		f.TemplateParams = tparams
		if start < len(p.toks) {
			f.Start = p.toks[start].Pos
		}
		return f
	}
	if p.atSym(kwOperator, "operator") {
		f := p.parseOperatorFunction(t)
		f.QualifierName = name
		f.TemplateParams = tparams
		if start < len(p.toks) {
			f.Start = p.toks[start].Pos
		}
		return f
	}

	simple := name.Last().Name
	qual := name.Qualifier()

	// Function template explicit args on declarator: f<int>(...) appears
	// in explicit specializations `template<> int g_add<int>(...)`.
	if p.at(token.LParen) {
		f := p.arena.NewFunctionDecl()
		f.Name, f.QualifierName, f.ReturnType = simple, qual, t
		f.TemplateParams = tparams
		f.Static, f.Inline, f.Constexpr = isStatic, isInline, isConstexpr
		if start < len(p.toks) {
			f.Start = p.toks[start].Pos
		}
		f.Params = p.parseParamList()
		p.finishFunction(f)
		return f
	}

	// Variable declaration.
	v := p.arena.NewVarDecl()
	v.Name, v.Type, v.Static = simple, t, isStatic
	if start < len(p.toks) {
		v.Start = p.toks[start].Pos
	}
	for p.at(token.LBracket) {
		p.skipBalanced(token.LBracket, token.RBracket)
	}
	if p.accept(token.Assign) {
		v.Init = p.parseExpr()
	} else if p.at(token.LBrace) {
		init := p.parseBracedInit(ast.QualifiedName{})
		v.Init = init
	}
	v.Stop = p.curPos()
	p.expect(token.Semi)
	return v
}
