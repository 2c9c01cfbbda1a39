// Package cparser parses the preprocessed C subset used by kernel code into
// the AST of internal/cast.
//
// The grammar covers what OFence's analysis needs to see: struct/union/enum
// and typedef declarations, function definitions, the full statement set
// (if/for/while/do/switch/goto/labels), and the C expression grammar
// including field accesses, calls, casts, sizeof, GNU statement expressions
// and initializer lists. Like Smatch, the parser is resilient: an
// unparseable declaration is skipped with an error recorded rather than
// aborting the file.
package cparser

import (
	"context"
	"fmt"
	"hash/maphash"
	"strings"

	"ofence/internal/cast"
	"ofence/internal/cpp"
	"ofence/internal/ctoken"
	"ofence/internal/obs"
)

// Parser parses one translation unit.
type Parser struct {
	toks []ctoken.Token
	i    int
	errs []error

	// arena batch-allocates the hot AST node kinds. nil (NewLegacy) means
	// plain per-node allocation.
	arena *cast.Arena

	// typedefs tracks typedef names so declarations can be distinguished
	// from expressions. The legacy parser seeds it with the kernel typedefs;
	// the arena parser sets base and consults the shared kernelTypedefSet.
	typedefs map[string]bool
	base     bool

	// memo and spans share header parses (memo.go): spans are the
	// memoized header ranges of toks, nextSpan the first one not yet
	// reached. tdHash is the set hash of the typedefs map, kept while memo
	// is set; tdLog, when non-nil, logs the typedef names a span parse
	// declares; past records a read beyond the end of toks.
	memo         *HeaderMemo
	spans        []cpp.Span
	nextSpan     int
	tdHash       [2]uint64
	tdLog        []string
	past         bool
	declsShared  int64
	tokensShared int64
}

// kernelTypedefs are typedef names assumed known even when their defining
// header was not included, mirroring Smatch's builtin knowledge.
var kernelTypedefs = []string{
	"u8", "u16", "u32", "u64", "s8", "s16", "s32", "s64",
	"__u8", "__u16", "__u32", "__u64", "__s8", "__s16", "__s32", "__s64",
	"size_t", "ssize_t", "loff_t", "off_t", "pid_t", "gfp_t", "bool",
	"uint8_t", "uint16_t", "uint32_t", "uint64_t",
	"int8_t", "int16_t", "int32_t", "int64_t", "uintptr_t", "intptr_t",
	"atomic_t", "atomic64_t", "atomic_long_t", "seqcount_t", "spinlock_t",
	"wait_queue_head_t", "dma_addr_t", "phys_addr_t", "resource_size_t",
}

// kernelTypedefSet is the kernelTypedefs list as a shared immutable set, so
// the arena parser consults it in place instead of copying 49 entries into a
// fresh map per file.
var kernelTypedefSet = func() map[string]bool {
	m := make(map[string]bool, len(kernelTypedefs))
	for _, n := range kernelTypedefs {
		m[n] = true
	}
	return m
}()

// New returns a parser over a preprocessed token stream. AST nodes are
// batch-allocated from a per-parser arena, and the kernel typedef seed is
// consulted via the shared set (the typedefs map is created lazily on the
// first typedef declaration). With a non-nil hm, the declarations of the
// memoized header ranges spans (cpp.Result.Spans of toks) are shared
// through hm instead of being parsed into this file's arena.
func New(toks []ctoken.Token, spans []cpp.Span, hm *HeaderMemo) *Parser {
	return &Parser{toks: toks, arena: new(cast.Arena), base: true, memo: hm, spans: spans}
}

// NewNoArena returns the hot-path parser with per-node heap allocation
// instead of arena slabs. ReleaseASTs mode parses with it: one live
// pointer into a slab pins the whole slab, so a parse tree meant to be
// dropped after extraction (while its barrier sites keep pointers to a
// few of its nodes) must be individually collectable for the drop to
// actually free memory.
func NewNoArena(toks []ctoken.Token, spans []cpp.Span, hm *HeaderMemo) *Parser {
	return &Parser{toks: toks, base: true, memo: hm, spans: spans}
}

// NewLegacy returns a parser that heap-allocates every node individually —
// the pre-arena behavior, kept as the differential and benchmark oracle. It
// never shares header parses.
func NewLegacy(toks []ctoken.Token) *Parser {
	p := &Parser{toks: toks, typedefs: map[string]bool{}}
	for _, n := range kernelTypedefs {
		p.typedefs[n] = true
	}
	return p
}

// isTypedef reports whether name is a known typedef.
func (p *Parser) isTypedef(name string) bool {
	return p.typedefs[name] || (p.base && kernelTypedefSet[name])
}

// addTypedef records a typedef declaration, keeping the typedef-set hash
// and the span log current when the parse shares header parses.
func (p *Parser) addTypedef(name string) {
	if p.typedefs == nil {
		p.typedefs = make(map[string]bool, 8)
	}
	if p.memo != nil && !p.typedefs[name] {
		p.tdHash[0] ^= maphash.String(typedefSeeds[0], name)
		p.tdHash[1] ^= maphash.String(typedefSeeds[1], name)
		if p.tdLog != nil {
			p.tdLog = append(p.tdLog, name)
		}
	}
	p.typedefs[name] = true
}

// ArenaBytes reports the slab bytes allocated for this parse (0 on the
// legacy path) — the source of the frontend.arena_bytes counter.
func (p *Parser) ArenaBytes() int64 { return p.arena.Bytes() }

// ParseSource preprocesses and parses src in one call.
func ParseSource(file, src string, opts cpp.Options) (*cast.File, []error) {
	return ParseSourceCtx(context.Background(), file, src, opts)
}

// ParseSourceCtx is ParseSource under an observability context: when ctx
// carries an obs.Tracer, the run is recorded as a "parse" span (with the
// "preprocess" span of cpp.PreprocessCtx as its child) counting tokens,
// top-level declarations and diagnostics.
func ParseSourceCtx(ctx context.Context, file, src string, opts cpp.Options) (*cast.File, []error) {
	ctx, sp := obs.Start(ctx, "parse")
	defer sp.End()
	sp.SetAttr("file", file)
	res := cpp.PreprocessCtx(ctx, file, src, opts)
	p := New(res.Tokens, nil, nil)
	f := p.ParseFile(file)
	errs := append(res.Errors, p.errs...)
	sp.Add("tokens", int64(len(res.Tokens)))
	sp.Add("decls", int64(len(f.Decls)))
	sp.Add("errors", int64(len(errs)))
	return f, errs
}

// ParseTokens parses a preprocess artifact into an AST. It is the pure
// parse stage of the incremental pipeline: the returned errors combine the
// artifact's preprocessing diagnostics with the parse diagnostics, exactly
// as ParseSource reports them, and the output depends only on (file, pre) —
// never on ambient state — so it may be memoized under pre's fingerprint.
func ParseTokens(ctx context.Context, file string, pre *cpp.Result) (*cast.File, []error) {
	f, errs, _ := ParseTokensMetered(ctx, file, pre)
	return f, errs
}

// ParseTokensMetered is ParseTokens plus the arena bytes consumed by the
// parse, for callers that aggregate frontend allocation counters.
func ParseTokensMetered(ctx context.Context, file string, pre *cpp.Result) (*cast.File, []error, int64) {
	_, sp := obs.Start(ctx, "parse")
	defer sp.End()
	sp.SetAttr("file", file)
	p := New(pre.Tokens, nil, nil)
	f := p.ParseFile(file)
	errs := append(append([]error{}, pre.Errors...), p.errs...)
	sp.Add("tokens", int64(len(pre.Tokens)))
	sp.Add("decls", int64(len(f.Decls)))
	sp.Add("errors", int64(len(errs)))
	sp.Add("arena_bytes", p.ArenaBytes())
	return f, errs, p.ArenaBytes()
}

// Errors returns the parse errors recorded so far.
func (p *Parser) Errors() []error { return p.errs }

func (p *Parser) errorf(pos ctoken.Position, format string, args ...any) {
	if len(p.errs) < maxErrors {
		p.errs = append(p.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
	}
}

func (p *Parser) cur() ctoken.Token {
	if p.i >= len(p.toks) {
		p.past = true
		return ctoken.Token{Kind: ctoken.EOF}
	}
	return p.toks[p.i]
}

func (p *Parser) peekAt(n int) ctoken.Token {
	if p.i+n >= len(p.toks) {
		p.past = true
		return ctoken.Token{Kind: ctoken.EOF}
	}
	return p.toks[p.i+n]
}

func (p *Parser) next() ctoken.Token {
	t := p.cur()
	if p.i < len(p.toks) {
		p.i++
	}
	return t
}

// advance is next() for callers that discard the token: it skips the
// 56-byte Token copy, which the compiler does not eliminate on its own.
func (p *Parser) advance() {
	if p.i < len(p.toks) {
		p.i++
	}
}

// at and atKeyword are the parser's innermost loop; they read the token in
// place instead of copying it (a Token is 56 bytes).
func (p *Parser) at(k ctoken.Kind) bool {
	if p.i >= len(p.toks) {
		p.past = true
		return k == ctoken.EOF
	}
	return p.toks[p.i].Kind == k
}

func (p *Parser) atKeyword(kw string) bool {
	if p.i >= len(p.toks) {
		p.past = true
		return false
	}
	t := &p.toks[p.i]
	return t.Kind == ctoken.Keyword && t.Text == kw
}

func (p *Parser) accept(k ctoken.Kind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k ctoken.Kind) ctoken.Token {
	if p.at(k) {
		return p.next()
	}
	t := p.cur()
	p.errorf(t.Pos, "expected %v, found %v", k, t)
	return t
}

// skipBalancedTo skips tokens until reaching kind at depth 0 of (), [], {}.
// Consumes the terminator. Used for error recovery.
func (p *Parser) skipBalancedTo(kinds ...ctoken.Kind) {
	depth := 0
	for {
		t := p.cur()
		switch t.Kind {
		case ctoken.EOF:
			return
		case ctoken.LParen, ctoken.LBracket, ctoken.LBrace:
			depth++
		case ctoken.RParen, ctoken.RBracket, ctoken.RBrace:
			if depth > 0 {
				depth--
			}
		}
		if depth == 0 {
			for _, k := range kinds {
				if t.Kind == k {
					p.advance()
					return
				}
			}
		}
		p.advance()
	}
}

// ---------------------------------------------------------------------------
// Top level

// ParseFile parses the entire token stream as a translation unit.
func (p *Parser) ParseFile(name string) *cast.File {
	f := &cast.File{Name: name}
	if len(p.toks) > 0 {
		f.Position = p.toks[0].Pos
	}
	if p.arena != nil {
		f.Decls = make([]cast.Decl, 0, 32)
	}
	for !p.at(ctoken.EOF) {
		if p.memo != nil {
			if s, ok := p.atSpan(); ok && p.shareSpan(f, s) {
				continue
			}
		}
		if d := p.topDecl(); d != nil {
			f.Decls = append(f.Decls, d)
		}
	}
	return f
}

// topDecl parses one top-level declaration and guarantees progress: when
// the parse consumes nothing, one token is skipped with an error.
func (p *Parser) topDecl() cast.Decl {
	before := p.i
	d := p.parseTopDecl()
	if p.i == before {
		p.errorf(p.cur().Pos, "unexpected token %v at top level", p.cur())
		p.advance()
	}
	return d
}

// atSpan returns the memoized header span starting at p.i, if any,
// skipping the spans the parse entered mid-declaration.
func (p *Parser) atSpan() (cpp.Span, bool) {
	for p.nextSpan < len(p.spans) && p.spans[p.nextSpan].Start < p.i {
		p.nextSpan++
	}
	if p.nextSpan < len(p.spans) && p.spans[p.nextSpan].Start == p.i {
		p.nextSpan++
		return p.spans[p.nextSpan-1], true
	}
	return cpp.Span{}, false
}

// parseTopDecl parses one top-level declaration: typedef, struct/union/enum
// definition, variable, or function.
func (p *Parser) parseTopDecl() cast.Decl {
	if p.accept(ctoken.Semi) {
		return nil
	}
	if p.atKeyword("typedef") {
		return p.parseTypedef()
	}
	if p.atKeyword("_Static_assert") {
		p.skipBalancedTo(ctoken.Semi)
		return nil
	}

	static, inline, extern := p.parseStorage()

	// struct/union/enum definition not followed by a declarator.
	if p.atKeyword("struct") || p.atKeyword("union") {
		if d, ok := p.tryStructDef(); ok {
			return d
		}
	}
	if p.atKeyword("enum") {
		if d, ok := p.tryEnumDef(); ok {
			return d
		}
	}

	typ := p.parseType()
	if typ == nil {
		pos := p.cur().Pos
		p.errorf(pos, "cannot parse declaration starting at %v", p.cur())
		p.skipBalancedTo(ctoken.Semi, ctoken.RBrace)
		return nil
	}

	// Function pointers and complicated declarators: "(*name)(...)" — skip.
	if p.at(ctoken.LParen) {
		p.skipBalancedTo(ctoken.Semi)
		return nil
	}

	if !p.at(ctoken.Ident) {
		p.errorf(p.cur().Pos, "expected declarator name, found %v", p.cur())
		p.skipBalancedTo(ctoken.Semi, ctoken.RBrace)
		return nil
	}
	name := p.next().Text

	// Function definition or prototype.
	if p.at(ctoken.LParen) {
		return p.parseFuncRest(typ, name, static, inline)
	}

	// Variable (possibly array) declaration.
	for p.accept(ctoken.LBracket) {
		typ.ArrayDims++
		p.skipBalancedToBracket()
	}
	for p.atKeyword("__attribute__") {
		p.skipAttribute()
	}
	var init cast.Expr
	if p.accept(ctoken.Assign) {
		init = p.parseInitializer()
	}
	// Further declarators on the same line are dropped (rare at file scope
	// in the code OFence inspects).
	if p.at(ctoken.Comma) {
		p.skipBalancedTo(ctoken.Semi)
	} else {
		p.expect(ctoken.Semi)
	}
	return p.newVarDecl(typ.Position, name, typ, init, extern, static)
}

func (p *Parser) parseStorage() (static, inline, extern bool) {
	for {
		switch {
		case p.acceptKeyword("static"):
			static = true
		case p.acceptKeyword("extern"):
			extern = true
		case p.acceptKeyword("inline"), p.acceptKeyword("__inline"), p.acceptKeyword("__inline__"):
			inline = true
		case p.acceptKeyword("auto"), p.acceptKeyword("register"):
		case p.atKeyword("__attribute__"):
			p.skipAttribute()
		default:
			return
		}
	}
}

func (p *Parser) skipAttribute() {
	p.advance() // __attribute__
	if p.at(ctoken.LParen) {
		depth := 0
		for {
			t := p.cur()
			if t.Kind == ctoken.EOF {
				return
			}
			if t.Kind == ctoken.LParen {
				depth++
			}
			if t.Kind == ctoken.RParen {
				depth--
				if depth == 0 {
					p.advance()
					return
				}
			}
			p.advance()
		}
	}
}

func (p *Parser) skipBalancedToBracket() {
	depth := 1
	for depth > 0 {
		t := p.next()
		switch t.Kind {
		case ctoken.LBracket:
			depth++
		case ctoken.RBracket:
			depth--
		case ctoken.EOF:
			return
		}
	}
}

// tryStructDef parses "struct X { ... };" when it really is a definition
// (i.e., followed by '{' and terminated by ';' without a declarator).
func (p *Parser) tryStructDef() (cast.Decl, bool) {
	save := p.i
	kw := p.next() // struct / union
	union := kw.Text == "union"
	tag := ""
	if p.at(ctoken.Ident) {
		tag = p.next().Text
	}
	if !p.at(ctoken.LBrace) {
		p.i = save
		return nil, false
	}
	sd := p.parseStructBody(kw.Pos, tag, union)
	if p.accept(ctoken.Semi) {
		return sd, true
	}
	// "struct X { ... } var;" — register the struct; parse the variable.
	if p.at(ctoken.Ident) {
		name := p.next().Text
		var init cast.Expr
		if p.accept(ctoken.Assign) {
			init = p.parseInitializer()
		}
		p.expect(ctoken.Semi)
		_ = name
		_ = init
		return sd, true
	}
	p.skipBalancedTo(ctoken.Semi)
	return sd, true
}

func (p *Parser) parseStructBody(pos ctoken.Position, tag string, union bool) *cast.StructDecl {
	p.expect(ctoken.LBrace)
	sd := p.newStructDecl(pos, tag, union)
	if p.arena != nil {
		sd.Fields = make([]*cast.FieldDecl, 0, 8)
	}
	for !p.at(ctoken.RBrace) && !p.at(ctoken.EOF) {
		before := p.i
		p.parseFieldGroup(sd)
		if p.i == before {
			p.advance()
		}
	}
	p.expect(ctoken.RBrace)
	return sd
}

// parseFieldGroup parses one "type a, *b, c[4];" field line.
func (p *Parser) parseFieldGroup(sd *cast.StructDecl) {
	// Anonymous nested struct/union: flatten its fields into the parent, as
	// the kernel uses them for layout only.
	if p.atKeyword("struct") || p.atKeyword("union") {
		save := p.i
		kw := p.next()
		tag := ""
		if p.at(ctoken.Ident) {
			tag = p.next().Text
		}
		if p.at(ctoken.LBrace) {
			inner := p.parseStructBody(kw.Pos, tag, kw.Text == "union")
			if p.at(ctoken.Semi) {
				// Anonymous member: flatten.
				p.advance()
				sd.Fields = append(sd.Fields, inner.Fields...)
				return
			}
			// Named member of anonymous struct type.
			if p.at(ctoken.Ident) {
				name := p.next().Text
				ft := p.newTypeExpr(kw.Pos)
				ft.Name, ft.Struct, ft.Union = p.taggedName(kw.Text, tag), tag, kw.Text == "union"
				sd.Fields = append(sd.Fields, p.newFieldDecl(kw.Pos, name, ft))
				p.skipBalancedTo(ctoken.Semi)
				return
			}
			p.skipBalancedTo(ctoken.Semi)
			return
		}
		p.i = save
	}

	base := p.parseType()
	if base == nil {
		p.errorf(p.cur().Pos, "cannot parse struct field at %v", p.cur())
		p.skipBalancedTo(ctoken.Semi, ctoken.RBrace)
		return
	}
	for {
		ft := *base // copy per declarator
		for p.accept(ctoken.Star) {
			ft.Pointers++
		}
		// Function-pointer field "(*f)(...)": record under its name.
		if p.at(ctoken.LParen) {
			save := p.i
			p.advance()
			if p.accept(ctoken.Star) && p.at(ctoken.Ident) {
				name := p.next().Text
				p.skipBalancedTo(ctoken.Semi)
				fp := ft
				fp.Pointers++
				sd.Fields = append(sd.Fields, p.newFieldDecl(fp.Position, name, p.newTypeExprCopy(&fp)))
				return
			}
			p.i = save
			p.skipBalancedTo(ctoken.Semi)
			return
		}
		if !p.at(ctoken.Ident) {
			p.skipBalancedTo(ctoken.Semi)
			return
		}
		name := p.next().Text
		fd := p.newFieldDecl(ft.Position, name, p.newTypeExprCopy(&ft))
		for p.accept(ctoken.LBracket) {
			fd.Type.ArrayDims++
			p.skipBalancedToBracket()
		}
		if p.accept(ctoken.Colon) { // bitfield width
			fd.BitField = true
			p.parseAssignExpr()
		}
		sd.Fields = append(sd.Fields, fd)
		if p.accept(ctoken.Comma) {
			continue
		}
		p.expect(ctoken.Semi)
		return
	}
}

func (p *Parser) tryEnumDef() (cast.Decl, bool) {
	save := p.i
	kw := p.next() // enum
	tag := ""
	if p.at(ctoken.Ident) {
		tag = p.next().Text
	}
	if !p.at(ctoken.LBrace) {
		p.i = save
		return nil, false
	}
	p.advance()
	ed := p.newEnumDecl(kw.Pos, tag)
	for !p.at(ctoken.RBrace) && !p.at(ctoken.EOF) {
		if p.at(ctoken.Ident) {
			ed.Names = append(ed.Names, p.next().Text)
			if p.accept(ctoken.Assign) {
				p.parseAssignExpr()
			}
		}
		if !p.accept(ctoken.Comma) {
			break
		}
	}
	p.expect(ctoken.RBrace)
	p.accept(ctoken.Semi)
	return ed, true
}

func (p *Parser) parseTypedef() cast.Decl {
	pos := p.next().Pos // typedef
	// typedef struct [tag] { ... } Name;
	if p.atKeyword("struct") || p.atKeyword("union") {
		kw := p.next()
		tag := ""
		if p.at(ctoken.Ident) {
			tag = p.next().Text
		}
		if p.at(ctoken.LBrace) {
			sd := p.parseStructBody(kw.Pos, tag, kw.Text == "union")
			ptr := 0
			for p.accept(ctoken.Star) {
				ptr++
			}
			name := p.expect(ctoken.Ident).Text
			p.expect(ctoken.Semi)
			p.addTypedef(name)
			if sd.Tag == "" {
				sd.Tag = name // anonymous struct named after its typedef
			}
			tt := p.newTypeExpr(pos)
			tt.Name, tt.Struct, tt.Union, tt.Pointers = p.taggedName(kw.Text, sd.Tag), sd.Tag, sd.Union, ptr
			td := p.newTypedefDecl(pos, name, tt)
			td.Struct = sd
			return td
		}
		// typedef struct tag Name;
		ptr := 0
		for p.accept(ctoken.Star) {
			ptr++
		}
		if p.at(ctoken.Ident) {
			name := p.next().Text
			p.addTypedef(name)
			p.skipBalancedTo(ctoken.Semi)
			tt := p.newTypeExpr(pos)
			tt.Name, tt.Struct, tt.Union, tt.Pointers = p.taggedName(kw.Text, tag), tag, kw.Text == "union", ptr
			return p.newTypedefDecl(pos, name, tt)
		}
		p.skipBalancedTo(ctoken.Semi)
		return nil
	}
	if p.atKeyword("enum") {
		if _, ok := p.tryEnumDef(); ok {
			if p.at(ctoken.Ident) {
				name := p.next().Text
				p.addTypedef(name)
				p.accept(ctoken.Semi)
				tt := p.newTypeExpr(pos)
				tt.Name = "int"
				return p.newTypedefDecl(pos, name, tt)
			}
			return nil
		}
	}
	typ := p.parseType()
	if typ == nil {
		p.skipBalancedTo(ctoken.Semi)
		return nil
	}
	// typedef ret (*fn)(args);
	if p.at(ctoken.LParen) {
		save := p.i
		p.advance()
		if p.accept(ctoken.Star) && p.at(ctoken.Ident) {
			name := p.next().Text
			p.addTypedef(name)
			p.skipBalancedTo(ctoken.Semi)
			t := p.newTypeExprCopy(typ)
			t.Pointers++
			return p.newTypedefDecl(pos, name, t)
		}
		p.i = save
		p.skipBalancedTo(ctoken.Semi)
		return nil
	}
	if !p.at(ctoken.Ident) {
		p.skipBalancedTo(ctoken.Semi)
		return nil
	}
	name := p.next().Text
	for p.accept(ctoken.LBracket) {
		typ.ArrayDims++
		p.skipBalancedToBracket()
	}
	p.expect(ctoken.Semi)
	p.addTypedef(name)
	return p.newTypedefDecl(pos, name, typ)
}

// ---------------------------------------------------------------------------
// Types

var baseTypeKeywords = map[string]bool{
	"void": true, "char": true, "short": true, "int": true, "long": true,
	"float": true, "double": true, "signed": true, "unsigned": true,
	"_Bool": true,
}

// startsType reports whether the upcoming tokens begin a type.
func (p *Parser) startsType() bool {
	t := p.cur()
	switch t.Kind {
	case ctoken.Keyword:
		if baseTypeKeywords[t.Text] || t.Text == "struct" || t.Text == "union" || t.Text == "enum" ||
			t.Text == "const" || t.Text == "volatile" || t.Text == "__volatile__" ||
			t.Text == "restrict" || t.Text == "__restrict" ||
			t.Text == "typeof" || t.Text == "__typeof__" {
			return true
		}
		return false
	case ctoken.Ident:
		if !p.isTypedef(t.Text) {
			return false
		}
		// A typedef name begins a declaration only when followed by a
		// declarator: identifier, '*' then identifier/'*'/'(', etc.
		n := p.peekAt(1)
		switch n.Kind {
		case ctoken.Ident:
			return true
		case ctoken.Star:
			// "name *x" (decl) vs "name * x" (multiplication): in statement
			// position a typedef name followed by '*' is virtually always a
			// declaration in kernel code.
			return true
		default:
			return false
		}
	}
	return false
}

// parseType parses a type specifier (qualifiers, base, struct/union/enum ref,
// typeof) followed by pointer stars. Returns nil when no type is present.
func (p *Parser) parseType() *cast.TypeExpr {
	pos := p.cur().Pos
	typ := p.newTypeExpr(pos)
	seen := false

	for {
		t := p.cur()
		if t.Kind == ctoken.Keyword {
			switch t.Text {
			case "const":
				typ.Const = true
				p.advance()
				continue
			case "volatile", "__volatile__":
				typ.Volatile = true
				p.advance()
				continue
			case "restrict", "__restrict":
				p.advance()
				continue
			case "__attribute__":
				p.skipAttribute()
				continue
			case "struct", "union":
				kw := p.next()
				union := kw.Text == "union"
				tag := ""
				if p.at(ctoken.Ident) {
					tag = p.next().Text
				}
				if p.at(ctoken.LBrace) {
					// Inline anonymous struct in a type position: parse and
					// reference by tag.
					p.parseStructBody(kw.Pos, tag, union)
				}
				typ.Name = p.taggedName(kw.Text, tag)
				typ.Struct = tag
				typ.Union = union
				seen = true
				continue
			case "enum":
				p.advance()
				tag := ""
				if p.at(ctoken.Ident) {
					tag = p.next().Text
				}
				if p.at(ctoken.LBrace) {
					p.skipBalancedTo(ctoken.RBrace)
				}
				typ.Name = p.taggedName("enum", tag)
				seen = true
				continue
			case "typeof", "__typeof__":
				p.advance()
				if p.at(ctoken.LParen) {
					p.skipBalancedTo(ctoken.RParen)
				}
				typ.Name = "typeof"
				seen = true
				continue
			}
			if baseTypeKeywords[t.Text] {
				if typ.Name == "" {
					typ.Name = t.Text
				} else {
					typ.Name += " " + t.Text
				}
				seen = true
				p.advance()
				continue
			}
		}
		if t.Kind == ctoken.Ident && !seen && p.isTypedef(t.Text) {
			typ.Name = t.Text
			seen = true
			p.advance()
			continue
		}
		break
	}
	if !seen {
		return nil
	}
	for {
		if p.accept(ctoken.Star) {
			typ.Pointers++
			continue
		}
		if p.atKeyword("const") || p.atKeyword("volatile") || p.atKeyword("__volatile__") || p.atKeyword("restrict") || p.atKeyword("__restrict") {
			p.advance()
			continue
		}
		if p.atKeyword("__attribute__") {
			p.skipAttribute()
			continue
		}
		break
	}
	return typ
}

// ---------------------------------------------------------------------------
// Functions

func (p *Parser) parseFuncRest(result *cast.TypeExpr, name string, static, inline bool) cast.Decl {
	fd := p.newFuncDecl(result.Position, name, result, static, inline)
	if p.arena != nil {
		fd.Params = make([]*cast.ParamDecl, 0, 4)
	}
	p.expect(ctoken.LParen)
	if p.atKeyword("void") && p.peekAt(1).Kind == ctoken.RParen {
		p.advance()
	}
	for !p.at(ctoken.RParen) && !p.at(ctoken.EOF) {
		if p.accept(ctoken.Ellipsis) {
			fd.Variadic = true
			break
		}
		pt := p.parseType()
		if pt == nil {
			// K&R or unsupported parameter: skip to ',' or ')'. The comma
			// must be consumed here or the loop would re-scan it forever.
			p.skipParam()
			if !p.accept(ctoken.Comma) {
				break
			}
			continue
		}
		prm := p.newParamDecl(pt.Position, pt)
		if p.at(ctoken.Ident) {
			prm.Name = p.next().Text
		} else if p.at(ctoken.LParen) {
			// Function-pointer parameter "ret (*f)(...)".
			save := p.i
			p.advance()
			if p.accept(ctoken.Star) && p.at(ctoken.Ident) {
				prm.Name = p.next().Text
				prm.Type.Pointers++
				p.skipBalancedTo(ctoken.RParen) // close declarator paren... may leave inner
				if p.at(ctoken.LParen) {
					p.skipBalancedTo(ctoken.RParen)
				}
			} else {
				p.i = save
				p.skipParam()
				if !p.accept(ctoken.Comma) {
					break
				}
				continue
			}
		}
		for p.accept(ctoken.LBracket) {
			prm.Type.ArrayDims++
			p.skipBalancedToBracket()
		}
		fd.Params = append(fd.Params, prm)
		if !p.accept(ctoken.Comma) {
			break
		}
	}
	p.expect(ctoken.RParen)
	for p.atKeyword("__attribute__") {
		p.skipAttribute()
	}
	if p.accept(ctoken.Semi) {
		return fd // prototype
	}
	if p.at(ctoken.LBrace) {
		fd.Body = p.parseBlock()
		return fd
	}
	p.errorf(p.cur().Pos, "expected function body or ';', found %v", p.cur())
	p.skipBalancedTo(ctoken.Semi, ctoken.RBrace)
	return fd
}

func (p *Parser) skipParam() {
	depth := 0
	for {
		t := p.cur()
		switch t.Kind {
		case ctoken.EOF:
			return
		case ctoken.LParen, ctoken.LBracket:
			depth++
		case ctoken.RParen:
			if depth == 0 {
				return
			}
			depth--
		case ctoken.RBracket:
			depth--
		case ctoken.Comma:
			if depth == 0 {
				return
			}
		}
		p.advance()
	}
}

// ---------------------------------------------------------------------------
// Statements

func (p *Parser) parseBlock() *cast.BlockStmt {
	pos := p.expect(ctoken.LBrace).Pos
	b := p.newBlock(pos)
	if p.arena != nil {
		// Statement lists were the parser's hottest leftover allocation: an
		// append-grown nil slice reallocates through every doubling step.
		// Most blocks fit eight statements; legacy (nil arena) keeps the
		// original growth profile.
		b.Stmts = make([]cast.Stmt, 0, 8)
	}
	for !p.at(ctoken.RBrace) && !p.at(ctoken.EOF) {
		before := p.i
		s := p.parseStmt()
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
		if p.i == before {
			p.errorf(p.cur().Pos, "cannot parse statement at %v", p.cur())
			p.advance()
		}
	}
	p.expect(ctoken.RBrace)
	return b
}

func (p *Parser) parseStmt() cast.Stmt {
	t := p.cur()
	switch {
	case t.Kind == ctoken.LBrace:
		return p.parseBlock()
	case t.Kind == ctoken.Semi:
		p.advance()
		return &cast.EmptyStmt{Position: t.Pos}
	case t.Kind == ctoken.Keyword:
		switch t.Text {
		case "if":
			return p.parseIf()
		case "for":
			return p.parseFor()
		case "while":
			return p.parseWhile()
		case "do":
			return p.parseDoWhile()
		case "switch":
			return p.parseSwitch()
		case "case":
			p.advance()
			v := p.parseCondExprNoComma()
			// GNU case ranges "case A ... B:" are flattened to A.
			if p.accept(ctoken.Ellipsis) {
				p.parseCondExprNoComma()
			}
			p.expect(ctoken.Colon)
			return &cast.CaseStmt{Position: t.Pos, Value: v}
		case "default":
			p.advance()
			p.expect(ctoken.Colon)
			return &cast.CaseStmt{Position: t.Pos}
		case "return":
			p.advance()
			var v cast.Expr
			if !p.at(ctoken.Semi) {
				v = p.parseExpr()
			}
			p.expect(ctoken.Semi)
			return p.newReturn(t.Pos, v)
		case "break":
			p.advance()
			p.expect(ctoken.Semi)
			return &cast.BreakStmt{Position: t.Pos}
		case "continue":
			p.advance()
			p.expect(ctoken.Semi)
			return &cast.ContinueStmt{Position: t.Pos}
		case "goto":
			p.advance()
			lbl := p.expect(ctoken.Ident).Text
			p.expect(ctoken.Semi)
			return &cast.GotoStmt{Position: t.Pos, Label: lbl}
		case "asm", "__asm__":
			p.advance()
			for p.atKeyword("volatile") || p.atKeyword("__volatile__") {
				p.advance()
			}
			start := p.i
			if p.at(ctoken.LParen) {
				p.skipBalancedTo(ctoken.RParen)
			}
			p.accept(ctoken.Semi)
			return &cast.AsmStmt{Position: t.Pos, Text: p.sliceText(start, p.i)}
		}
		if p.startsType() {
			return p.parseDeclStmt()
		}
		// Unknown keyword statement: treat as expression attempt.
	case t.Kind == ctoken.Ident:
		// Label: "name:"
		if p.peekAt(1).Kind == ctoken.Colon {
			p.advance()
			p.advance()
			return &cast.LabelStmt{Position: t.Pos, Name: t.Text}
		}
		if p.startsType() {
			return p.parseDeclStmt()
		}
	}
	if p.startsType() {
		return p.parseDeclStmt()
	}
	e := p.parseExpr()
	p.expect(ctoken.Semi)
	return p.newExprStmt(t.Pos, e)
}

func (p *Parser) sliceText(from, to int) string {
	var parts []string
	for i := from; i < to && i < len(p.toks); i++ {
		parts = append(parts, p.toks[i].Text)
	}
	return strings.Join(parts, " ")
}

func (p *Parser) parseDeclStmt() cast.Stmt {
	typ := p.parseType()
	if typ == nil {
		e := p.parseExpr()
		p.expect(ctoken.Semi)
		return p.newExprStmt(p.cur().Pos, e)
	}
	if !p.at(ctoken.Ident) {
		// struct definitions inside functions etc. — skip.
		p.skipBalancedTo(ctoken.Semi)
		return &cast.EmptyStmt{Position: typ.Position}
	}
	name := p.next().Text
	ds := p.newDeclStmt(typ.Position, name, typ)
	for p.accept(ctoken.LBracket) {
		ds.Type.ArrayDims++
		p.skipBalancedToBracket()
	}
	if p.accept(ctoken.Assign) {
		ds.Init = p.parseInitializer()
	}
	// Multiple declarators: "int a, b = 1;" — emit first; wrap the rest in a
	// synthetic block? We keep it simple: additional declarators become
	// additional DeclStmts folded into a BlockStmt-free sequence is not
	// possible here, so subsequent ones are parsed and dropped into the same
	// statement via a chained structure. To preserve them, we return a
	// BlockStmt when more than one declarator exists.
	if p.at(ctoken.Comma) {
		stmts := []cast.Stmt{ds}
		for p.accept(ctoken.Comma) {
			sub := p.newDeclStmt(p.cur().Pos, "", cloneType(typ))
			sub.Type.Pointers = 0
			for p.accept(ctoken.Star) {
				sub.Type.Pointers++
			}
			if !p.at(ctoken.Ident) {
				break
			}
			sub.Name = p.next().Text
			for p.accept(ctoken.LBracket) {
				sub.Type.ArrayDims++
				p.skipBalancedToBracket()
			}
			if p.accept(ctoken.Assign) {
				sub.Init = p.parseInitializer()
			}
			stmts = append(stmts, sub)
		}
		p.expect(ctoken.Semi)
		blk := p.newBlock(ds.Position)
		blk.Stmts = stmts
		return blk
	}
	p.expect(ctoken.Semi)
	return ds
}

func cloneType(t *cast.TypeExpr) *cast.TypeExpr {
	c := *t
	return &c
}

func (p *Parser) parseIf() cast.Stmt {
	pos := p.next().Pos // if
	p.expect(ctoken.LParen)
	cond := p.parseExpr()
	p.expect(ctoken.RParen)
	then := p.parseStmt()
	var els cast.Stmt
	if p.acceptKeyword("else") {
		els = p.parseStmt()
	}
	return p.newIf(pos, cond, then, els)
}

func (p *Parser) parseFor() cast.Stmt {
	pos := p.next().Pos // for
	p.expect(ctoken.LParen)
	fs := p.newFor(pos)
	if !p.at(ctoken.Semi) {
		if p.startsType() {
			typ := p.parseType()
			name := p.expect(ctoken.Ident).Text
			ds := p.newDeclStmt(typ.Position, name, typ)
			if p.accept(ctoken.Assign) {
				ds.Init = p.parseInitializer()
			}
			fs.Init = ds
		} else {
			fs.Init = p.newExprStmt(p.cur().Pos, p.parseExpr())
		}
	}
	p.expect(ctoken.Semi)
	if !p.at(ctoken.Semi) {
		fs.Cond = p.parseExpr()
	}
	p.expect(ctoken.Semi)
	if !p.at(ctoken.RParen) {
		fs.Post = p.parseExpr()
	}
	p.expect(ctoken.RParen)
	fs.Body = p.parseStmt()
	return fs
}

func (p *Parser) parseWhile() cast.Stmt {
	pos := p.next().Pos
	p.expect(ctoken.LParen)
	cond := p.parseExpr()
	p.expect(ctoken.RParen)
	body := p.parseStmt()
	return p.newWhile(pos, cond, body)
}

func (p *Parser) parseDoWhile() cast.Stmt {
	pos := p.next().Pos
	body := p.parseStmt()
	if !p.acceptKeyword("while") {
		p.errorf(p.cur().Pos, "expected while after do body")
	}
	p.expect(ctoken.LParen)
	cond := p.parseExpr()
	p.expect(ctoken.RParen)
	p.expect(ctoken.Semi)
	return p.newDoWhile(pos, body, cond)
}

func (p *Parser) parseSwitch() cast.Stmt {
	pos := p.next().Pos
	p.expect(ctoken.LParen)
	tag := p.parseExpr()
	p.expect(ctoken.RParen)
	body := p.parseBlock()
	return p.newSwitch(pos, tag, body)
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

// parseExpr parses a full expression including the comma operator.
func (p *Parser) parseExpr() cast.Expr {
	e := p.parseAssignExpr()
	for p.at(ctoken.Comma) {
		pos := p.next().Pos
		y := p.parseAssignExpr()
		e = p.newComma(pos, e, y)
	}
	return e
}

func (p *Parser) parseAssignExpr() cast.Expr {
	lhs := p.parseCondExprNoComma()
	if p.cur().Kind.IsAssign() {
		op := p.next()
		rhs := p.parseAssignExpr()
		return p.newAssign(op.Pos, op.Kind, lhs, rhs)
	}
	return lhs
}

func (p *Parser) parseCondExprNoComma() cast.Expr {
	cond := p.parseBinaryExpr(1)
	if !p.at(ctoken.Question) {
		return cond
	}
	pos := p.next().Pos
	var then cast.Expr
	if p.at(ctoken.Colon) {
		// GNU "a ?: b"
		then = cond
	} else {
		then = p.parseExpr()
	}
	p.expect(ctoken.Colon)
	els := p.parseCondExprNoComma()
	return p.newCond(pos, cond, then, els)
}

var binaryPrec = map[ctoken.Kind]int{
	ctoken.PipePipe: 1,
	ctoken.AmpAmp:   2,
	ctoken.Pipe:     3,
	ctoken.Caret:    4,
	ctoken.Amp:      5,
	ctoken.Eq:       6, ctoken.Ne: 6,
	ctoken.Lt: 7, ctoken.Gt: 7, ctoken.Le: 7, ctoken.Ge: 7,
	ctoken.Shl: 8, ctoken.Shr: 8,
	ctoken.Plus: 9, ctoken.Minus: 9,
	ctoken.Star: 10, ctoken.Slash: 10, ctoken.Percent: 10,
}

func (p *Parser) parseBinaryExpr(minPrec int) cast.Expr {
	lhs := p.parseUnaryExpr()
	for {
		prec, ok := binaryPrec[p.cur().Kind]
		if !ok || prec < minPrec {
			return lhs
		}
		op := p.next()
		rhs := p.parseBinaryExpr(prec + 1)
		lhs = p.newBinary(op.Pos, op.Kind, lhs, rhs)
	}
}

func (p *Parser) parseUnaryExpr() cast.Expr {
	t := p.cur()
	switch t.Kind {
	case ctoken.Not, ctoken.Minus, ctoken.Plus, ctoken.Tilde, ctoken.Star, ctoken.Amp, ctoken.PlusPlus, ctoken.MinusMinus:
		p.advance()
		x := p.parseUnaryExpr()
		return p.newUnary(t.Pos, t.Kind, x)
	case ctoken.Keyword:
		if t.Text == "sizeof" {
			p.advance()
			if p.at(ctoken.LParen) {
				save := p.i
				p.advance()
				if typ := p.parseType(); typ != nil && p.at(ctoken.RParen) {
					p.advance()
					return &cast.SizeofTypeExpr{Position: t.Pos, Type: typ}
				}
				p.i = save
			}
			x := p.parseUnaryExpr()
			return p.newSizeof(t.Pos, x)
		}
	case ctoken.LParen:
		// Cast "(type)expr", statement expression "({...})", or paren expr.
		save := p.i
		p.advance()
		if p.at(ctoken.LBrace) {
			blk := p.parseBlock()
			p.expect(ctoken.RParen)
			se := &cast.StmtExpr{Position: t.Pos, Block: blk}
			return p.parsePostfixOps(se)
		}
		if typ := p.parseType(); typ != nil && p.at(ctoken.RParen) {
			p.advance()
			// "(type)" must be followed by a castable expression; otherwise
			// it was a parenthesized identifier that looked like a typedef.
			if p.canStartExpr() {
				x := p.parseUnaryExpr()
				return p.newCast(t.Pos, typ, x)
			}
		}
		p.i = save
	}
	return p.parsePostfixExpr()
}

func (p *Parser) canStartExpr() bool {
	switch p.cur().Kind {
	case ctoken.Ident, ctoken.Int, ctoken.Float, ctoken.Char, ctoken.String,
		ctoken.LParen, ctoken.Not, ctoken.Minus, ctoken.Plus, ctoken.Tilde,
		ctoken.Star, ctoken.Amp, ctoken.PlusPlus, ctoken.MinusMinus, ctoken.LBrace:
		return true
	case ctoken.Keyword:
		return p.cur().Text == "sizeof"
	}
	return false
}

func (p *Parser) parsePostfixExpr() cast.Expr {
	e := p.parsePrimaryExpr()
	return p.parsePostfixOps(e)
}

func (p *Parser) parsePostfixOps(e cast.Expr) cast.Expr {
	for {
		t := p.cur()
		switch t.Kind {
		case ctoken.Dot:
			p.advance()
			name := p.expect(ctoken.Ident).Text
			e = p.newField(t.Pos, e, name, false)
		case ctoken.Arrow:
			p.advance()
			name := p.expect(ctoken.Ident).Text
			e = p.newField(t.Pos, e, name, true)
		case ctoken.LBracket:
			p.advance()
			idx := p.parseExpr()
			p.expect(ctoken.RBracket)
			e = p.newIndex(t.Pos, e, idx)
		case ctoken.LParen:
			p.advance()
			call := p.newCall(t.Pos, e)
			if p.arena != nil && !p.at(ctoken.RParen) {
				call.Args = make([]cast.Expr, 0, 4)
			}
			for !p.at(ctoken.RParen) && !p.at(ctoken.EOF) {
				call.Args = append(call.Args, p.parseCallArg())
				if !p.accept(ctoken.Comma) {
					break
				}
			}
			p.expect(ctoken.RParen)
			e = call
		case ctoken.PlusPlus, ctoken.MinusMinus:
			p.advance()
			e = p.newPostfix(t.Pos, t.Kind, e)
		default:
			return e
		}
	}
}

// parseCallArg parses one function argument. Type-name arguments (as used by
// sizeof-like macros that survived preprocessing) degrade to identifiers.
func (p *Parser) parseCallArg() cast.Expr {
	return p.parseAssignExpr()
}

func (p *Parser) parsePrimaryExpr() cast.Expr {
	t := p.cur()
	switch t.Kind {
	case ctoken.Ident:
		p.advance()
		return p.newIdent(t.Pos, t.Text)
	case ctoken.Int, ctoken.Float, ctoken.Char, ctoken.String:
		p.advance()
		return p.newLit(t.Pos, t.Kind, t.Text)
	case ctoken.LParen:
		p.advance()
		if p.at(ctoken.LBrace) {
			blk := p.parseBlock()
			p.expect(ctoken.RParen)
			return &cast.StmtExpr{Position: t.Pos, Block: blk}
		}
		e := p.parseExpr()
		p.expect(ctoken.RParen)
		return e
	case ctoken.LBrace:
		return p.parseInitList()
	case ctoken.Keyword:
		// Keywords that survive into expressions (e.g. unexpanded typeof
		// uses) degrade to identifiers to keep the analysis going.
		p.advance()
		return p.newIdent(t.Pos, t.Text)
	}
	p.errorf(t.Pos, "unexpected token %v in expression", t)
	p.advance()
	return p.newIdent(t.Pos, "<error>")
}

func (p *Parser) parseInitializer() cast.Expr {
	if p.at(ctoken.LBrace) {
		return p.parseInitList()
	}
	return p.parseAssignExpr()
}

func (p *Parser) parseInitList() cast.Expr {
	pos := p.expect(ctoken.LBrace).Pos
	il := &cast.InitListExpr{Position: pos}
	for !p.at(ctoken.RBrace) && !p.at(ctoken.EOF) {
		// Designators ".field =" and "[idx] =" are skipped; the value is kept.
		for p.at(ctoken.Dot) || p.at(ctoken.LBracket) {
			if p.accept(ctoken.Dot) {
				p.accept(ctoken.Ident)
			} else {
				p.advance()
				p.skipBalancedToBracket()
			}
		}
		p.accept(ctoken.Assign)
		il.Elems = append(il.Elems, p.parseInitializer())
		if !p.accept(ctoken.Comma) {
			break
		}
	}
	p.expect(ctoken.RBrace)
	return il
}
