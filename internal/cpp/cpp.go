// Package cpp implements the minimal C preprocessor needed to analyze
// kernel-style source: object-like and function-like #define macros, macro
// expansion with recursion protection, #undef, #include resolution against a
// caller-provided file set, and conditional compilation (#if defined /
// #ifdef / #ifndef / #else / #elif / #endif) driven by a configuration set.
//
// The output is a flat token stream with Newline tokens removed, ready for
// internal/cparser. OFence analyzes one kernel configuration at a time (the
// paper uses the Ubuntu x86_64 config); the Config map plays that role here.
package cpp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
	"strings"
	"sync"

	"ofence/internal/ctoken"
	"ofence/internal/obs"
)

// Macro is one #define.
type Macro struct {
	Name     string
	Params   []string // nil for object-like macros
	Variadic bool
	Body     []ctoken.Token
	IsFunc   bool

	// hash is the macro's 128-bit content hash (see seal); the preprocessor
	// XORs the hashes of the live macros into its macro-state key.
	hash [2]uint64
}

// Options configures preprocessing.
type Options struct {
	// Include maps an include path (as written between quotes or angle
	// brackets) to its source text. Unresolvable includes are skipped, as
	// Smatch does for headers outside the analyzed tree.
	Include map[string]string
	// Defines seeds the macro table, keyed by name. Values are parsed as
	// object-like macro bodies. Used for kernel config (CONFIG_*) symbols.
	Defines map[string]string
	// MaxExpansionDepth bounds recursive macro expansion. Defaults to 64.
	MaxExpansionDepth int
	// Syms, when non-nil, interns every identifier the directive scanner
	// emits into a shared symbol table (see ctoken.SymTab): all files of a
	// project agree on one canonical spelling per identifier. Ignored by the
	// legacy lexer path. Never changes the token stream or the fingerprint.
	Syms *ctoken.SymTab
	// LegacyLexer tokenizes with the original map-dispatch ctoken.Lexer
	// instead of the zero-copy ctoken.Scanner. The output is identical
	// (differential suites pin it); the flag exists so benchmarks and tests
	// can hold the pre-overhaul frontend as an oracle.
	LegacyLexer bool
	// Memo, when non-nil, shares header expansions with every other run
	// given the same Memo (see Memo for the binding rules). Never changes
	// the result. Ignored by the legacy lexer path.
	Memo *Memo
}

// Result is the preprocessed token stream plus diagnostics.
type Result struct {
	Tokens []ctoken.Token
	Errors []error
	// Macros is the final macro table, useful for tests and tooling.
	Macros map[string]*Macro
	// Spans are the outermost includes of the main file served by the
	// memo — recorded into it or replayed from it — in token order (nil
	// without Options.Memo). The parser shares header parses through them.
	Spans []Span

	// fp/fpFile memoize Fingerprint for the file the run was attributed to:
	// the digest is streamed while tokens are emitted, so the usual caller
	// (the incremental pipeline, which fingerprints under the same name it
	// preprocessed) never re-walks the stream. Unexported on purpose — a
	// Result rebuilt by gob (the disk stage codec) falls back to the slow
	// re-computation below.
	fp     string
	fpFile string

	// legacy marks a run produced under Options.LegacyLexer. Fingerprint
	// then recomputes through the historical fmt.Fprintf formulation — the
	// same bytes, at the pre-overhaul cost — so the oracle path measures
	// what the original frontend actually did.
	legacy bool

	// replayed and expanded count the run's #includes served from the memo
	// and the ones whose header was scanned and expanded.
	replayed, expanded int
}

// Fingerprint returns the content address of the preprocess artifact: the
// hex SHA-256 over the attributed file name, every emitted token (text and
// position) and every diagnostic. Two runs with the same fingerprint are
// indistinguishable to every downstream stage — the parser sees the same
// tokens and the result carries the same errors — so the fingerprint is the
// cache key the incremental pipeline builds parse/cfg/extract keys from.
func (r *Result) Fingerprint(file string) string {
	if r.fp != "" && file == r.fpFile {
		return r.fp
	}
	if r.legacy {
		h := sha256.New()
		fmt.Fprintf(h, "%s\x00", file)
		for _, tok := range r.Tokens {
			fmt.Fprintf(h, "%s\x00%s:%d:%d\n", tok.Text, tok.Pos.File, tok.Pos.Line, tok.Pos.Col)
		}
		for _, err := range r.Errors {
			fmt.Fprintf(h, "E%s\x00", err.Error())
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	h := sha256.New()
	var buf []byte
	buf = hashSeed(h, buf, file)
	for _, tok := range r.Tokens {
		buf = hashToken(h, buf, tok)
	}
	for _, err := range r.Errors {
		buf = hashError(h, buf, err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashSeed, hashToken and hashError stream the fingerprint preimage — the
// exact byte sequence the historical fmt.Fprintf formulation produced
// ("file\x00", then "text\x00file:line:col\n" per token, then "Eerr\x00"
// per diagnostic) — without fmt's reflection or per-token allocations. They
// thread a reusable scratch buffer.
func hashSeed(h hash.Hash, buf []byte, file string) []byte {
	buf = append(buf[:0], file...)
	buf = append(buf, 0)
	h.Write(buf)
	return buf
}

func hashToken(h hash.Hash, buf []byte, tok ctoken.Token) []byte {
	buf = append(buf[:0], tok.Text...)
	buf = append(buf, 0)
	buf = append(buf, tok.Pos.File...)
	buf = append(buf, ':')
	buf = strconv.AppendInt(buf, int64(tok.Pos.Line), 10)
	buf = append(buf, ':')
	buf = strconv.AppendInt(buf, int64(tok.Pos.Col), 10)
	buf = append(buf, '\n')
	h.Write(buf)
	return buf
}

func hashError(h hash.Hash, buf []byte, err error) []byte {
	buf = append(buf[:0], 'E')
	buf = append(buf, err.Error()...)
	buf = append(buf, 0)
	h.Write(buf)
	return buf
}

type preprocessor struct {
	opts   Options
	macros map[string]*Macro
	out    []ctoken.Token
	errs   []error
	// includes maps every file on the include stack to its depth (the root
	// file is 1); the cycle guard skips an #include of any of them.
	includes map[string]int

	// state is the macro-state key: the XOR of every live macro's hash,
	// kept current by setMacro.
	state [2]uint64
	// memo, recs, touched and seen drive header memoization (memo.go):
	// the headers being recorded, innermost last, and the macro names and
	// files logged while any recording is open. spans are the memo-backed
	// includes emitted so far (Result.Spans).
	memo     *Memo
	recs     []recording
	touched  []string
	seen     []string
	spans    []Span
	replayed int
	expanded int

	// h accumulates the content fingerprint while tokens are emitted, so
	// Result.Fingerprint for the root file is ready the moment preprocessing
	// finishes; hbuf batches the pending preimage bytes so the digest sees
	// one Write per few kilobytes instead of one per token. The byte stream
	// is identical either way, so fingerprints are unchanged. hflush is the
	// batch size that triggers a Write: hashFlushAt, or unbounded while a
	// header is being recorded, so its preimage stays in hbuf to be copied.
	h      hash.Hash
	hbuf   []byte
	hflush int

	// hpfx caches the "\x00file:line:" chunk of the token preimage — tokens
	// cluster by line, so the file name and line digits are re-rendered only
	// when the line changes. The emitted byte stream is unchanged.
	hpfx     []byte
	hpfxFile string
	hpfxLine int

	// lineBuf is the streaming path's one reused scratch buffer: directive
	// lines and macro-bearing line suffixes are collected here before
	// dispatch/expand. Safe to reuse per line — nothing retains line tokens
	// (macro bodies are copied at definition time).
	lineBuf []ctoken.Token

	// ident memoizes SymTab.Canon lookups for the streaming scanner.
	ident *ctoken.IdentCache

	// macroBloom is a first-byte filter over defined macro names: the
	// streaming path checks it before probing the macro table for every
	// identifier. Bits are only ever set (#undef leaves them — a false
	// positive just falls through to the map), so the filter can never hide
	// a definition.
	macroBloom [8]uint32
}

func (p *preprocessor) bloomAdd(name string) {
	if len(name) > 0 {
		c := name[0]
		p.macroBloom[c>>5] |= 1 << (c & 31)
	}
}

func (p *preprocessor) bloomHas(name string) bool {
	c := name[0]
	return p.macroBloom[c>>5]&(1<<(c&31)) != 0
}

// appendDecimal renders v in base 10 like strconv.AppendInt, with inline
// paths for the 1-3 digit values that dominate line/column numbers.
func appendDecimal(b []byte, v int) []byte {
	switch {
	case v < 10:
		return append(b, byte('0'+v))
	case v < 100:
		return append(b, byte('0'+v/10), byte('0'+v%10))
	case v < 1000:
		return append(b, byte('0'+v/100), byte('0'+v/10%10), byte('0'+v%10))
	default:
		return strconv.AppendInt(b, int64(v), 10)
	}
}

// hashTok appends tok's fingerprint preimage to the pending batch, flushing
// to the digest when the batch fills. The batch is staged through locals so
// the per-token appends store the slice headers back to the heap once, not
// once per append (each header store is a write barrier on this path).
func (p *preprocessor) hashTok(tok ctoken.Token) {
	if p.h == nil {
		return
	}
	b := p.hbuf
	if len(b) >= p.hflush {
		p.h.Write(b)
		b = b[:0]
	}
	if tok.Pos.Line != p.hpfxLine || tok.Pos.File != p.hpfxFile {
		pfx := append(p.hpfx[:0], 0)
		pfx = append(pfx, tok.Pos.File...)
		pfx = append(pfx, ':')
		pfx = appendDecimal(pfx, tok.Pos.Line)
		pfx = append(pfx, ':')
		p.hpfx = pfx
		p.hpfxFile, p.hpfxLine = tok.Pos.File, tok.Pos.Line
	}
	b = append(b, tok.Text...)
	b = append(b, p.hpfx...)
	b = appendDecimal(b, tok.Pos.Col)
	p.hbuf = append(b, '\n')
}

// hashFlushAt is the pending-preimage size at which hashTok writes the
// batch into the digest.
const hashFlushAt = 4 << 10

// flushHash drains the pending preimage batch into the digest.
func (p *preprocessor) flushHash() {
	if len(p.hbuf) > 0 {
		p.h.Write(p.hbuf)
		p.hbuf = p.hbuf[:0]
	}
}

// Preprocess runs the preprocessor over src, attributing positions to file.
func Preprocess(file, src string, opts Options) *Result {
	return PreprocessCtx(context.Background(), file, src, opts)
}

// PreprocessCtx is Preprocess under an observability context: when ctx
// carries an obs.Tracer, the run is recorded as a "preprocess" span with
// the emitted token and macro counts.
func PreprocessCtx(ctx context.Context, file, src string, opts Options) *Result {
	_, sp := obs.Start(ctx, "preprocess")
	defer sp.End()
	sp.SetAttr("file", file)
	res := preprocess(file, src, opts)
	sp.Add("tokens", int64(len(res.Tokens)))
	sp.Add("macros", int64(len(res.Macros)))
	sp.Add("errors", int64(len(res.Errors)))
	sp.Add("includes_replayed", int64(res.replayed))
	sp.Add("includes_expanded", int64(res.expanded))
	return res
}

// scratch recycles the streaming preprocessor's per-file working buffers —
// the output token buffer, the pending fingerprint preimage, its line-prefix
// cache, and the directive line buffer. None of them escape into the Result
// (the output is copied out at its exact size), so a pool entry is free to
// move between files and workers.
type scratch struct {
	out     []ctoken.Token
	hbuf    []byte
	hpfx    []byte
	lineBuf []ctoken.Token
	ident   *ctoken.IdentCache
}

var scratchPool = sync.Pool{
	New: func() any {
		return &scratch{hbuf: make([]byte, 0, 8<<10)}
	},
}

func preprocess(file, src string, opts Options) *Result {
	if opts.MaxExpansionDepth <= 0 {
		opts.MaxExpansionDepth = 64
	}
	p := &preprocessor{
		opts:     opts,
		macros:   map[string]*Macro{},
		includes: map[string]int{},
		hflush:   hashFlushAt,
	}
	var sc *scratch
	if !opts.LegacyLexer {
		// The overhauled frontend runs on pooled scratch buffers (the output
		// included), fingerprints as it emits, and shares header expansions
		// through the memo. The legacy oracle keeps the original cost
		// profile: a nil output slice grown by append, no memo, and no
		// streamed fingerprint — Result.Fingerprint re-walks the tokens on
		// demand, as the pre-overhaul frontend always did.
		sc = scratchPool.Get().(*scratch)
		p.out = sc.out[:0]
		p.h = sha256.New()
		p.hbuf = append(sc.hbuf[:0], file...)
		p.hbuf = append(p.hbuf, 0)
		p.hpfx = sc.hpfx
		p.lineBuf = sc.lineBuf
		if opts.Syms != nil {
			if sc.ident == nil {
				sc.ident = new(ctoken.IdentCache)
			}
			p.ident = sc.ident.For(opts.Syms)
		}
		if opts.Memo != nil && opts.Memo.syms == opts.Syms {
			p.memo = opts.Memo
		}
	}
	for name, body := range opts.Defines {
		var m *Macro
		switch {
		case opts.LegacyLexer:
			lx := ctoken.NewLexer("<define:"+name+">", body)
			m = &Macro{Name: name, Body: lx.All()}
			m.seal()
		case p.memo != nil:
			m = p.memo.define(name, body)
		default:
			m = defineMacro(name, body, opts.Syms)
		}
		p.setMacro(name, m)
	}
	p.processFile(file, src)
	toks := p.out
	if sc != nil {
		toks = append([]ctoken.Token(nil), p.out...)
		clear(p.out) // drop the pooled buffer's references into this file's sources
	}
	res := &Result{Tokens: toks, Errors: p.errs, Macros: p.macros, Spans: p.spans,
		legacy: opts.LegacyLexer, replayed: p.replayed, expanded: p.expanded}
	if p.h != nil {
		for _, err := range p.errs {
			p.flushHash()
			p.hbuf = hashError(p.h, p.hbuf, err)
			p.hbuf = p.hbuf[:0]
		}
		p.flushHash()
		res.fp = hex.EncodeToString(p.h.Sum(nil))
		res.fpFile = file
	}
	if sc != nil {
		sc.out = p.out[:0]
		sc.hbuf = p.hbuf[:0]
		sc.hpfx = p.hpfx[:0]
		sc.lineBuf = p.lineBuf[:0]
		scratchPool.Put(sc)
	}
	return res
}

func (p *preprocessor) errorf(pos ctoken.Position, format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// line-oriented phase: split into directive lines and ordinary token runs.
type line struct {
	directive string // "" for ordinary lines
	toks      []ctoken.Token
	pos       ctoken.Position
}

// splitLinesLegacy is the original Lexer-driven splitter, kept as the
// differential oracle behind Options.LegacyLexer.
func splitLinesLegacy(file, src string, errs *[]error) []line {
	lx := ctoken.NewLexer(file, src)
	lx.KeepNewlines = true
	var lines []line
	cur := line{}
	atLineStart := true
	flush := func() {
		if cur.directive != "" || len(cur.toks) > 0 {
			lines = append(lines, cur)
		}
		cur = line{}
		atLineStart = true
	}
	for {
		t := lx.Next()
		if t.Kind == ctoken.EOF {
			flush()
			break
		}
		if t.Kind == ctoken.Newline {
			flush()
			continue
		}
		if atLineStart && t.Kind == ctoken.Hash {
			name := lx.Next()
			if name.Kind == ctoken.Ident || name.Kind == ctoken.Keyword {
				cur.directive = name.Text
				cur.pos = t.Pos
			} else if name.Kind == ctoken.Newline {
				// "#" alone: null directive.
				flush()
				continue
			} else if name.Kind == ctoken.EOF {
				flush()
				break
			} else {
				cur.directive = "#"
				cur.pos = t.Pos
				cur.toks = append(cur.toks, name)
			}
			atLineStart = false
			continue
		}
		atLineStart = false
		if cur.pos.Line == 0 {
			cur.pos = t.Pos
		}
		cur.toks = append(cur.toks, t)
	}
	*errs = append(*errs, lx.Errors()...)
	return lines
}

// condState tracks one level of #if nesting.
type condState struct {
	active      bool // tokens in this branch are emitted
	everMatched bool // some branch already matched (for #elif/#else)
	parentLive  bool
}

func (p *preprocessor) processFile(file, src string) {
	if depth, on := p.includes[file]; on {
		p.poison(depth)
		return
	}
	if len(p.includes) > 0 {
		p.expanded++
	}
	if len(p.recs) > 0 {
		p.seen = append(p.seen, file)
	}
	p.includes[file] = len(p.includes) + 1
	defer delete(p.includes, file)

	if !p.opts.LegacyLexer {
		p.streamFile(file, src)
		return
	}

	lines := splitLinesLegacy(file, src, &p.errs)
	var conds []condState
	for _, ln := range lines {
		conds = p.dispatch(ln, conds)
	}
	if len(conds) != 0 {
		p.errorf(ctoken.Position{File: file, Line: 1, Col: 1}, "unterminated conditional (%d open)", len(conds))
	}
}

// condsLive reports whether every open conditional branch is active.
func condsLive(conds []condState) bool {
	for _, c := range conds {
		if !c.active {
			return false
		}
	}
	return true
}

// dispatch processes one line against the conditional stack and returns the
// updated stack. It is shared by the legacy line walk (which feeds it every
// line) and the streaming path (which feeds it directive lines only and
// emits ordinary tokens inline).
func (p *preprocessor) dispatch(ln line, conds []condState) []condState {
	switch ln.directive {
	case "ifdef", "ifndef":
		want := ln.directive == "ifdef"
		on := false
		if len(ln.toks) >= 1 && ln.toks[0].Kind == ctoken.Ident {
			_, defined := p.macros[ln.toks[0].Text]
			on = defined == want
		} else {
			p.errorf(ln.pos, "#%s requires an identifier", ln.directive)
		}
		conds = append(conds, condState{active: on, everMatched: on, parentLive: condsLive(conds)})
	case "if":
		on := p.evalCond(ln.toks, ln.pos)
		conds = append(conds, condState{active: on, everMatched: on, parentLive: condsLive(conds)})
	case "elif":
		if len(conds) == 0 {
			p.errorf(ln.pos, "#elif without #if")
			return conds
		}
		c := &conds[len(conds)-1]
		if c.everMatched {
			c.active = false
		} else {
			c.active = p.evalCond(ln.toks, ln.pos)
			c.everMatched = c.active
		}
	case "else":
		if len(conds) == 0 {
			p.errorf(ln.pos, "#else without #if")
			return conds
		}
		c := &conds[len(conds)-1]
		c.active = !c.everMatched
		c.everMatched = true
	case "endif":
		if len(conds) == 0 {
			p.errorf(ln.pos, "#endif without #if")
			return conds
		}
		conds = conds[:len(conds)-1]
	case "define":
		if condsLive(conds) {
			p.define(ln)
		}
	case "undef":
		if condsLive(conds) && len(ln.toks) >= 1 {
			p.setMacro(ln.toks[0].Text, nil)
		}
	case "include":
		if condsLive(conds) {
			p.include(ln)
		}
	case "pragma", "error", "warning", "line", "#":
		// Ignored. #error inside a dead branch is common in the kernel.
		if ln.directive == "error" && condsLive(conds) {
			p.errorf(ln.pos, "#error: %s", renderTokens(ln.toks))
		}
	case "":
		if condsLive(conds) {
			// hide starts nil: expand only ever reads it (lookups and range
			// are fine on a nil map) and builds fresh sub maps, so the
			// historical per-line map literal was pure allocation.
			p.expandInto(ln.toks, 0, nil)
		}
	default:
		// Unknown directive: skip, as Smatch does.
	}
	return conds
}

// streamFile is the overhauled single-pass preprocessor: it drives the
// zero-copy scanner token by token and emits ordinary live-line tokens
// straight into the output — each folded into the running fingerprint as it
// passes — with no whole-file token buffer and no line materialization in
// between. Directive lines and macro-bearing line suffixes are collected
// into one small reused buffer and handled by the same dispatch/expand
// machinery as the legacy walk, so semantics match line for line.
func (p *preprocessor) streamFile(file, src string) {
	sc := ctoken.NewScanner(file, src)
	sc.KeepNewlines = true
	sc.Syms = p.opts.Syms
	sc.Ident = p.ident
	errStart := len(p.errs)
	buf := p.lineBuf[:0]
	var conds []condState
	t := sc.Next()
	for t.Kind != ctoken.EOF {
		if t.Kind == ctoken.Newline {
			t = sc.Next()
			continue
		}
		if t.Kind == ctoken.Hash {
			// Directive: collect the rest of the line and dispatch it. The
			// buffer is free for reuse as soon as dispatch returns — #define
			// copies the body it retains, everything else consumes the tokens
			// synchronously.
			ln := line{pos: t.Pos}
			buf = buf[:0]
			for t = sc.Next(); t.Kind != ctoken.Newline && t.Kind != ctoken.EOF; t = sc.Next() {
				buf = append(buf, t)
			}
			if len(buf) > 0 { // "#" alone is a null directive
				if name := buf[0]; name.Kind == ctoken.Ident || name.Kind == ctoken.Keyword {
					ln.directive = name.Text
					ln.toks = buf[1:]
				} else {
					ln.directive = "#"
					ln.toks = buf
				}
				conds = p.dispatch(ln, conds)
			}
			continue
		}
		if !condsLive(conds) {
			// Dead branch: discard tokens to end of line. Interning is
			// suspended — these tokens are never emitted, so the symbol
			// table has no business seeing their identifiers.
			syms := sc.Syms
			sc.Syms = nil
			for t.Kind != ctoken.Newline && t.Kind != ctoken.EOF {
				t = sc.Next()
			}
			sc.Syms = syms
			continue
		}
		// Ordinary live line: stream tokens directly, falling back to the
		// expander from the first macro invocation on.
		hasMacros := len(p.macros) > 0
		for {
			if hasMacros && t.Kind == ctoken.Ident && p.bloomHas(t.Text) {
				if _, ok := p.macros[t.Text]; ok {
					buf = buf[:0]
					for ; t.Kind != ctoken.Newline && t.Kind != ctoken.EOF; t = sc.Next() {
						buf = append(buf, t)
					}
					expanded := p.expand(buf, 0, nil)
					for _, et := range expanded {
						p.hashTok(et)
					}
					p.out = append(p.out, expanded...)
					break
				}
			}
			p.hashTok(t)
			p.out = append(p.out, t)
			t = sc.Next()
			if t.Kind == ctoken.Newline || t.Kind == ctoken.EOF {
				break
			}
		}
	}
	if len(conds) != 0 {
		p.errorf(ctoken.Position{File: file, Line: 1, Col: 1}, "unterminated conditional (%d open)", len(conds))
	}
	// The line splitter reported a file's lexical errors before any of its
	// directive errors; splice the scanner's errors into the same slot so
	// diagnostics order (and with it the fingerprint) is unchanged.
	if scErrs := sc.Errors(); len(scErrs) > 0 {
		p.errs = append(p.errs, scErrs...)
		copy(p.errs[errStart+len(scErrs):], p.errs[errStart:len(p.errs)-len(scErrs)])
		copy(p.errs[errStart:], scErrs)
	}
	p.lineBuf = buf[:0]
}

func (p *preprocessor) define(ln line) {
	if len(ln.toks) == 0 || ln.toks[0].Kind != ctoken.Ident {
		p.errorf(ln.pos, "#define requires a name")
		return
	}
	name := ln.toks[0].Text
	m := &Macro{Name: name}
	rest := ln.toks[1:]
	// Function-like only if "(" immediately follows the name (no space).
	if len(rest) > 0 && rest[0].Kind == ctoken.LParen &&
		rest[0].Pos.Line == ln.toks[0].Pos.Line &&
		rest[0].Pos.Col == ln.toks[0].Pos.Col+len(name) {
		m.IsFunc = true
		m.Params = []string{}
		i := 1
		for i < len(rest) && rest[i].Kind != ctoken.RParen {
			switch rest[i].Kind {
			case ctoken.Ident, ctoken.Keyword:
				m.Params = append(m.Params, rest[i].Text)
			case ctoken.Ellipsis:
				m.Variadic = true
			case ctoken.Comma:
			default:
				p.errorf(rest[i].Pos, "bad macro parameter %v", rest[i])
			}
			i++
		}
		if i >= len(rest) {
			p.errorf(ln.pos, "unterminated macro parameter list for %s", name)
			return
		}
		m.Body = copyToks(rest[i+1:])
	} else {
		m.Body = copyToks(rest)
	}
	m.seal()
	p.setMacro(name, m)
}

// copyToks detaches a macro body from the pooled line buffer it was scanned
// into: macro definitions outlive processFile (they are retained by
// Result.Macros and the memo), so they must not alias recycled token
// storage.
func copyToks(toks []ctoken.Token) []ctoken.Token {
	if len(toks) == 0 {
		return nil
	}
	out := make([]ctoken.Token, len(toks))
	copy(out, toks)
	return out
}

func (p *preprocessor) include(ln line) {
	if len(ln.toks) == 0 {
		p.errorf(ln.pos, "#include requires a path")
		return
	}
	var path string
	t := ln.toks[0]
	if t.Kind == ctoken.String {
		path = strings.Trim(t.Text, `"`)
	} else if t.Kind == ctoken.Lt {
		// <a/b.h>: reassemble the path from tokens up to ">".
		var sb strings.Builder
		for _, tk := range ln.toks[1:] {
			if tk.Kind == ctoken.Gt {
				break
			}
			sb.WriteString(tk.Text)
		}
		path = sb.String()
	} else {
		p.errorf(ln.pos, "malformed #include")
		return
	}
	src, ok := p.opts.Include[path]
	if !ok {
		// Unresolvable header: skip silently (outside the analyzed tree).
		return
	}
	p.includeFile(path, src)
}

// expandInto appends toks to the output, expanding macros. Only the legacy
// line walk reaches it — the streaming path emits ordinary tokens inline —
// so it keeps the original always-allocate expander cost profile.
func (p *preprocessor) expandInto(toks []ctoken.Token, depth int, hide map[string]bool) {
	expanded := p.expand(toks, depth, hide)
	for _, t := range expanded {
		p.hashTok(t)
	}
	p.out = append(p.out, expanded...)
}

// expand returns toks with all macro invocations expanded. hide carries the
// set of macro names currently being expanded (standard C recursion rule).
func (p *preprocessor) expand(toks []ctoken.Token, depth int, hide map[string]bool) []ctoken.Token {
	if depth > p.opts.MaxExpansionDepth {
		if len(toks) > 0 {
			p.errorf(toks[0].Pos, "macro expansion too deep")
		}
		return nil
	}
	var out []ctoken.Token
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.Kind != ctoken.Ident {
			out = append(out, t)
			continue
		}
		m, ok := p.macros[t.Text]
		if !ok || hide[t.Text] {
			out = append(out, t)
			continue
		}
		if !m.IsFunc {
			sub := map[string]bool{t.Text: true}
			for k := range hide {
				sub[k] = true
			}
			body := retarget(m.Body, t.Pos)
			out = append(out, p.expand(body, depth+1, sub)...)
			continue
		}
		// Function-like: need "(" next, otherwise plain identifier.
		if i+1 >= len(toks) || toks[i+1].Kind != ctoken.LParen {
			out = append(out, t)
			continue
		}
		args, consumed, ok := parseArgs(toks[i+1:])
		if !ok {
			p.errorf(t.Pos, "unterminated argument list for macro %s", t.Text)
			out = append(out, t)
			continue
		}
		i += consumed
		// Expand arguments first (standard order).
		for ai := range args {
			args[ai] = p.expand(args[ai], depth+1, hide)
		}
		body := p.substitute(m, args, t.Pos)
		sub := map[string]bool{t.Text: true}
		for k := range hide {
			sub[k] = true
		}
		out = append(out, p.expand(body, depth+1, sub)...)
	}
	return out
}

// parseArgs parses "(a, b, f(c,d))" starting at the LParen. Returns the
// argument token slices, the number of tokens consumed (including parens),
// and whether the list was terminated.
func parseArgs(toks []ctoken.Token) (args [][]ctoken.Token, consumed int, ok bool) {
	depth := 0
	var cur []ctoken.Token
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		switch t.Kind {
		case ctoken.LParen:
			depth++
			if depth > 1 {
				cur = append(cur, t)
			}
		case ctoken.RParen:
			depth--
			if depth == 0 {
				if len(cur) > 0 || len(args) > 0 {
					args = append(args, cur)
				}
				return args, i + 1, true
			}
			cur = append(cur, t)
		case ctoken.Comma:
			if depth == 1 {
				args = append(args, cur)
				cur = nil
			} else {
				cur = append(cur, t)
			}
		default:
			cur = append(cur, t)
		}
	}
	return nil, 0, false
}

// substitute replaces parameters in the macro body with argument tokens and
// handles # stringification and ## pasting.
func (p *preprocessor) substitute(m *Macro, args [][]ctoken.Token, at ctoken.Position) []ctoken.Token {
	argFor := func(name string) ([]ctoken.Token, bool) {
		for pi, pn := range m.Params {
			if pn == name {
				if pi < len(args) {
					return args[pi], true
				}
				return nil, true
			}
		}
		if m.Variadic && name == "__VA_ARGS__" {
			var va []ctoken.Token
			for pi := len(m.Params); pi < len(args); pi++ {
				if pi > len(m.Params) {
					va = append(va, ctoken.Token{Kind: ctoken.Comma, Text: ",", Pos: at})
				}
				va = append(va, args[pi]...)
			}
			return va, true
		}
		return nil, false
	}

	var out []ctoken.Token
	body := retarget(m.Body, at)
	for i := 0; i < len(body); i++ {
		t := body[i]
		// Stringification: #param
		if t.Kind == ctoken.Hash && i+1 < len(body) && body[i+1].Kind == ctoken.Ident {
			if arg, ok := argFor(body[i+1].Text); ok {
				out = append(out, ctoken.Token{
					Kind: ctoken.String,
					Text: strconv.Quote(renderTokens(arg)),
					Pos:  at,
				})
				i++
				continue
			}
		}
		// Token pasting: a ## b
		if i+2 < len(body) && body[i+1].Kind == ctoken.HashHash {
			left := expandOne(t, argFor)
			right := expandOne(body[i+2], argFor)
			pasted := p.pasteTokens(left, right, at)
			out = append(out, pasted...)
			i += 2
			continue
		}
		if t.Kind == ctoken.Ident {
			if arg, ok := argFor(t.Text); ok {
				out = append(out, arg...)
				continue
			}
		}
		out = append(out, t)
	}
	return out
}

func expandOne(t ctoken.Token, argFor func(string) ([]ctoken.Token, bool)) []ctoken.Token {
	if t.Kind == ctoken.Ident {
		if arg, ok := argFor(t.Text); ok {
			return arg
		}
	}
	return []ctoken.Token{t}
}

// pasteTokens concatenates the last token of left with the first of right,
// re-lexing the result (with the legacy lexer on the oracle path).
func (p *preprocessor) pasteTokens(left, right []ctoken.Token, at ctoken.Position) []ctoken.Token {
	if len(left) == 0 {
		return right
	}
	if len(right) == 0 {
		return left
	}
	glued := left[len(left)-1].Text + right[0].Text
	var mid []ctoken.Token
	if p.opts.LegacyLexer {
		mid = ctoken.NewLexer(at.File, glued).All()
	} else {
		sc := ctoken.NewScanner(at.File, glued)
		sc.Syms = p.opts.Syms
		mid = sc.AppendAll(nil)
	}
	for i := range mid {
		mid[i].Pos = at
	}
	out := append([]ctoken.Token{}, left[:len(left)-1]...)
	out = append(out, mid...)
	out = append(out, right[1:]...)
	return out
}

func retarget(toks []ctoken.Token, at ctoken.Position) []ctoken.Token {
	out := make([]ctoken.Token, len(toks))
	for i, t := range toks {
		t.Pos = at
		out[i] = t
	}
	return out
}

func renderTokens(toks []ctoken.Token) string {
	var sb strings.Builder
	for i, t := range toks {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(t.Text)
	}
	return sb.String()
}

// evalCond evaluates a #if expression. Supported: integer literals,
// defined(X) / defined X, !, &&, ||, comparison and arithmetic on constants,
// and macro names (expanded; undefined names evaluate to 0).
func (p *preprocessor) evalCond(toks []ctoken.Token, pos ctoken.Position) bool {
	// Replace defined(X) before macro expansion.
	var pre []ctoken.Token
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.Kind == ctoken.Ident && t.Text == "defined" {
			name := ""
			if i+1 < len(toks) && toks[i+1].Kind == ctoken.Ident {
				name = toks[i+1].Text
				i++
			} else if i+3 < len(toks) && toks[i+1].Kind == ctoken.LParen &&
				toks[i+2].Kind == ctoken.Ident && toks[i+3].Kind == ctoken.RParen {
				name = toks[i+2].Text
				i += 3
			} else {
				p.errorf(t.Pos, "malformed defined()")
			}
			v := "0"
			if _, ok := p.macros[name]; ok {
				v = "1"
			}
			pre = append(pre, ctoken.Token{Kind: ctoken.Int, Text: v, Pos: t.Pos})
			continue
		}
		pre = append(pre, t)
	}
	expanded := p.expand(pre, 0, map[string]bool{})
	// Remaining identifiers are undefined macros: value 0.
	for i, t := range expanded {
		if t.Kind == ctoken.Ident {
			expanded[i] = ctoken.Token{Kind: ctoken.Int, Text: "0", Pos: t.Pos}
		}
	}
	ev := condEval{toks: expanded, p: p, pos: pos}
	v := ev.ternary()
	if !ev.atEnd() && !ev.failed {
		p.errorf(pos, "trailing tokens in #if expression")
	}
	return v != 0
}

// condEval is a tiny precedence-climbing evaluator over constant tokens.
type condEval struct {
	toks   []ctoken.Token
	i      int
	p      *preprocessor
	pos    ctoken.Position
	failed bool
}

func (e *condEval) atEnd() bool { return e.i >= len(e.toks) }

func (e *condEval) peekKind() ctoken.Kind {
	if e.atEnd() {
		return ctoken.EOF
	}
	return e.toks[e.i].Kind
}

func (e *condEval) fail(msg string) int64 {
	if !e.failed {
		e.failed = true
		e.p.errorf(e.pos, "#if: %s", msg)
	}
	e.i = len(e.toks)
	return 0
}

func (e *condEval) primary() int64 {
	if e.atEnd() {
		return e.fail("unexpected end of expression")
	}
	t := e.toks[e.i]
	switch t.Kind {
	case ctoken.Int:
		e.i++
		txt := strings.TrimRight(t.Text, "uUlL")
		v, err := strconv.ParseInt(txt, 0, 64)
		if err != nil {
			return e.fail("bad integer " + t.Text)
		}
		return v
	case ctoken.Char:
		e.i++
		return 1 // character constants are rare in kernel #if; nonzero suffices
	case ctoken.LParen:
		e.i++
		v := e.ternary()
		if e.peekKind() != ctoken.RParen {
			return e.fail("missing )")
		}
		e.i++
		return v
	case ctoken.Not:
		e.i++
		if e.primaryUnary() == 0 {
			return 1
		}
		return 0
	case ctoken.Minus:
		e.i++
		return -e.primaryUnary()
	case ctoken.Plus:
		e.i++
		return e.primaryUnary()
	case ctoken.Tilde:
		e.i++
		return ^e.primaryUnary()
	}
	return e.fail("unexpected token " + t.String())
}

func (e *condEval) primaryUnary() int64 { return e.primary() }

var condPrec = map[ctoken.Kind]int{
	ctoken.Star: 10, ctoken.Slash: 10, ctoken.Percent: 10,
	ctoken.Plus: 9, ctoken.Minus: 9,
	ctoken.Shl: 8, ctoken.Shr: 8,
	ctoken.Lt: 7, ctoken.Gt: 7, ctoken.Le: 7, ctoken.Ge: 7,
	ctoken.Eq: 6, ctoken.Ne: 6,
	ctoken.Amp: 5, ctoken.Caret: 4, ctoken.Pipe: 3,
	ctoken.AmpAmp: 2, ctoken.PipePipe: 1,
}

func (e *condEval) binary(minPrec int) int64 {
	lhs := e.primary()
	for {
		prec, ok := condPrec[e.peekKind()]
		if !ok || prec < minPrec {
			return lhs
		}
		op := e.toks[e.i].Kind
		e.i++
		rhs := e.binary(prec + 1)
		lhs = applyCond(op, lhs, rhs, e)
	}
}

func (e *condEval) ternary() int64 {
	cond := e.binary(1)
	if e.peekKind() != ctoken.Question {
		return cond
	}
	e.i++
	a := e.ternary()
	if e.peekKind() != ctoken.Colon {
		return e.fail("missing : in ?:")
	}
	e.i++
	b := e.ternary()
	if cond != 0 {
		return a
	}
	return b
}

func applyCond(op ctoken.Kind, a, b int64, e *condEval) int64 {
	bool2int := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	switch op {
	case ctoken.Star:
		return a * b
	case ctoken.Slash:
		if b == 0 {
			return e.fail("division by zero")
		}
		return a / b
	case ctoken.Percent:
		if b == 0 {
			return e.fail("modulo by zero")
		}
		return a % b
	case ctoken.Plus:
		return a + b
	case ctoken.Minus:
		return a - b
	case ctoken.Shl:
		return a << uint(b&63)
	case ctoken.Shr:
		return a >> uint(b&63)
	case ctoken.Lt:
		return bool2int(a < b)
	case ctoken.Gt:
		return bool2int(a > b)
	case ctoken.Le:
		return bool2int(a <= b)
	case ctoken.Ge:
		return bool2int(a >= b)
	case ctoken.Eq:
		return bool2int(a == b)
	case ctoken.Ne:
		return bool2int(a != b)
	case ctoken.Amp:
		return a & b
	case ctoken.Caret:
		return a ^ b
	case ctoken.Pipe:
		return a | b
	case ctoken.AmpAmp:
		return bool2int(a != 0 && b != 0)
	case ctoken.PipePipe:
		return bool2int(a != 0 || b != 0)
	}
	return e.fail("unsupported operator")
}
