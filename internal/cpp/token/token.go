// Package token defines the lexical token kinds, interned symbols, and
// source positions used by the C++ frontend. It plays the role of clang's
// Token/SourceLocation machinery for this reproduction.
//
// The representation is tuned for the frontend hot path: Kind is one
// byte, positions intern the file name (FileID) so a Pos is four machine
// words with no pointers, and identifier/keyword tokens carry an interned
// Symbol so downstream lookups compare integers instead of strings. A
// Token is 40 bytes with a single pointer (the spelling), roughly half
// the size — and half the GC scan work — of the naive representation.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind uint8

// Token kinds. Punctuators follow C++ naming (clang's tok:: names).
const (
	Invalid Kind = iota
	EOF

	Identifier // foo
	Keyword    // class, template, ...
	IntLit     // 42, 0x2a, 0b101, 42ull
	FloatLit   // 3.14, 1e-9f
	CharLit    // 'a', L'a'
	StringLit  // "abc", R"(abc)", u8"abc"

	// Punctuators.
	LParen    // (
	RParen    // )
	LBrace    // {
	RBrace    // }
	LBracket  // [
	RBracket  // ]
	Semi      // ;
	Comma     // ,
	Colon     // :
	ColonCol  // ::
	Arrow     // ->
	ArrowStar // ->*
	Dot       // .
	DotStar   // .*
	Ellipsis  // ...
	Question  // ?

	Assign     // =
	Plus       // +
	Minus      // -
	Star       // *
	Slash      // /
	Percent    // %
	Amp        // &
	AmpAmp     // &&
	Pipe       // |
	PipePipe   // ||
	Caret      // ^
	Tilde      // ~
	Exclaim    // !
	Less       // <
	Greater    // >
	LessEq     // <=
	GreaterEq  // >=
	EqEq       // ==
	NotEq      // !=
	Spaceship  // <=>
	Shl        // <<
	Shr        // >>
	PlusEq     // +=
	MinusEq    // -=
	StarEq     // *=
	SlashEq    // /=
	PercentEq  // %=
	AmpEq      // &=
	PipeEq     // |=
	CaretEq    // ^=
	ShlEq      // <<=
	ShrEq      // >>=
	PlusPlus   // ++
	MinusMinus // --

	Hash     // # (start of a preprocessor directive)
	HashHash // ## (token paste, inside macro bodies)

	Comment // retained only when the lexer is configured to keep them
)

var kindNames = map[Kind]string{
	Invalid: "invalid", EOF: "eof",
	Identifier: "identifier", Keyword: "keyword",
	IntLit: "int-literal", FloatLit: "float-literal",
	CharLit: "char-literal", StringLit: "string-literal",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}",
	LBracket: "[", RBracket: "]", Semi: ";", Comma: ",",
	Colon: ":", ColonCol: "::", Arrow: "->", ArrowStar: "->*",
	Dot: ".", DotStar: ".*", Ellipsis: "...", Question: "?",
	Assign: "=", Plus: "+", Minus: "-", Star: "*", Slash: "/",
	Percent: "%", Amp: "&", AmpAmp: "&&", Pipe: "|", PipePipe: "||",
	Caret: "^", Tilde: "~", Exclaim: "!", Less: "<", Greater: ">",
	LessEq: "<=", GreaterEq: ">=", EqEq: "==", NotEq: "!=",
	Spaceship: "<=>", Shl: "<<", Shr: ">>",
	PlusEq: "+=", MinusEq: "-=", StarEq: "*=", SlashEq: "/=",
	PercentEq: "%=", AmpEq: "&=", PipeEq: "|=", CaretEq: "^=",
	ShlEq: "<<=", ShrEq: ">>=", PlusPlus: "++", MinusMinus: "--",
	Hash: "#", HashHash: "##", Comment: "comment",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Pos is a location in a source file. Offset is a byte offset into the
// file's contents; Line and Col are 1-based. The file name is interned:
// Pos holds a FileID and is pointer-free.
type Pos struct {
	File   FileID
	Offset int32
	Line   int32
	Col    int32
}

// MakePos builds a Pos from a file name and int coordinates.
func MakePos(file string, offset, line, col int) Pos {
	return Pos{File: InternFile(file), Offset: int32(offset), Line: int32(line), Col: int32(col)}
}

// FileName returns the interned file name.
func (p Pos) FileName() string { return p.File.Name() }

// IsValid reports whether the position carries a real location.
func (p Pos) IsValid() bool { return p.Line > 0 }

// String formats the position as file:line:col.
func (p Pos) String() string {
	if !p.IsValid() {
		return "<invalid>"
	}
	return fmt.Sprintf("%s:%d:%d", p.File.Name(), p.Line, p.Col)
}

// Token is a single lexical token.
type Token struct {
	Text string // exact source spelling
	Pos  Pos

	// Sym is the interned spelling for Identifier and Keyword tokens
	// (NoSym for every other kind, and for hand-built tokens that never
	// went through the lexer).
	Sym  Symbol
	Kind Kind

	// LeadingNewline is true when this token is the first on its line,
	// which the preprocessor uses to recognize directives.
	LeadingNewline bool
}

// End returns the position one past the last byte of the token.
func (t Token) End() Pos {
	p := t.Pos
	p.Offset += int32(len(t.Text))
	p.Col += int32(len(t.Text))
	return p
}

// Is reports whether the token is a keyword or identifier with the given
// spelling.
func (t Token) Is(text string) bool {
	return (t.Kind == Keyword || t.Kind == Identifier) && t.Text == text
}

// IsPunct reports whether the token is the given punctuator kind.
func (t Token) IsPunct(k Kind) bool { return t.Kind == k }

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case Identifier, Keyword, IntLit, FloatLit, CharLit, StringLit:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}

// KeywordList enumerates the C++ keywords recognized by the lexer. The
// interner seeds these first, so their Symbols form the dense range
// [1, len(KeywordList)] and Symbol.IsKeyword is a range check.
var KeywordList = []string{
	"alignas", "alignof", "asm", "auto",
	"bool", "break", "case", "catch",
	"char", "char8_t", "char16_t", "char32_t",
	"class", "concept", "const", "consteval",
	"constexpr", "constinit", "const_cast",
	"continue", "co_await", "co_return", "co_yield",
	"decltype", "default", "delete", "do",
	"double", "dynamic_cast", "else", "enum",
	"explicit", "export", "extern", "false",
	"float", "for", "friend", "goto", "if",
	"inline", "int", "long", "mutable",
	"namespace", "new", "noexcept", "nullptr",
	"operator", "private", "protected", "public",
	"register", "reinterpret_cast", "requires",
	"return", "short", "signed", "sizeof",
	"static", "static_assert", "static_cast",
	"struct", "switch", "template", "this",
	"thread_local", "throw", "true", "try",
	"typedef", "typeid", "typename", "union",
	"unsigned", "using", "virtual", "void",
	"volatile", "wchar_t", "while",
}

// Keywords is the keyword set as a map, kept for callers that test
// arbitrary spellings.
var Keywords = func() map[string]bool {
	m := make(map[string]bool, len(KeywordList))
	for _, k := range KeywordList {
		m[k] = true
	}
	return m
}()

// IsTypeKeyword reports whether the spelling is a builtin type keyword.
func IsTypeKeyword(s string) bool {
	switch s {
	case "void", "bool", "char", "char8_t", "char16_t", "char32_t",
		"wchar_t", "short", "int", "long", "signed", "unsigned",
		"float", "double", "auto":
		return true
	}
	return false
}

// AssignmentOps enumerates the compound-assignment punctuator kinds.
var AssignmentOps = map[Kind]bool{
	Assign: true, PlusEq: true, MinusEq: true, StarEq: true, SlashEq: true,
	PercentEq: true, AmpEq: true, PipeEq: true, CaretEq: true,
	ShlEq: true, ShrEq: true,
}
