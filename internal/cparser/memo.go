package cparser

import (
	"hash/maphash"
	"sync"

	"ofence/internal/cast"
	"ofence/internal/cpp"
)

// HeaderMemo shares header parses between files. The preprocessor reports
// which token ranges of a file are memoized header expansions (cpp.Span,
// which holds the range's tokens and their content address); the
// top-level declarations of such a range are a function of its tokens
// and of the typedef names known where it starts, so the memo keeps them
// under (span key, typedef set) and every later file that includes the
// header in the same state appends the stored declarations instead of
// parsing the range again. The stored declarations are shared, read-only,
// and owned by the memo, not by any file's arena.
//
// A range is stored only when its top-level declarations tile it exactly
// and parsing them never looked at a token past its end: a header that ends
// mid-declaration, or whose last declaration the parser could only close by
// peeking into the includer, is parsed in line by every file. A memo stores
// at most cpp.MemoMaxCost tokens' worth of entries. It is safe for
// concurrent use; the legacy parser never consults it.
type HeaderMemo struct {
	mu      sync.Mutex
	entries map[headerKey]*headerEntry
	cost    int
}

// NewHeaderMemo returns an empty header-parse memo.
func NewHeaderMemo() *HeaderMemo {
	return &HeaderMemo{entries: map[headerKey]*headerEntry{}}
}

// headerKey identifies one header parse: the span's content address and
// the set hash of the typedef names declared before it.
type headerKey struct {
	span     cpp.SpanKey
	typedefs [2]uint64
}

// headerEntry is one stored header parse, immutable once stored. A nil
// decls with ineligible set records a span that must be parsed in line, so
// later files skip the attempt.
type headerEntry struct {
	decls      []cast.Decl
	typedefs   []string // names the span declares, in declaration order
	errs       []error  // the span's parse errors, as a parse from zero errors records them
	tokens     int
	ineligible bool
}

func (e *headerEntry) cost() int { return 1 + e.tokens + len(e.errs) + len(e.typedefs) }

func (m *HeaderMemo) lookup(k headerKey) *headerEntry {
	m.mu.Lock()
	e := m.entries[k]
	m.mu.Unlock()
	return e
}

// store keeps e under k unless k is already stored or e does not fit
// under the cap.
func (m *HeaderMemo) store(k headerKey, e *headerEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[k]; ok || m.cost+e.cost() > cpp.MemoMaxCost {
		return
	}
	m.entries[k] = e
	m.cost += e.cost()
}

// typedefSeeds key the two halves of every typedef name's 128-bit hash;
// the hashes only meet inside one process's memos.
var typedefSeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// maxErrors is the per-file parse diagnostic cap.
const maxErrors = 100

// atSpan returns the span starting at p.i, if any, when the parse shares
// header parses, skipping the spans the parse entered mid-declaration.
func (p *Parser) atSpan() (cpp.Span, bool) {
	if p.memo == nil {
		return cpp.Span{}, false
	}
	for p.nextSpan < len(p.spans) && p.spans[p.nextSpan].At < p.i {
		p.nextSpan++
	}
	if p.nextSpan < len(p.spans) && p.spans[p.nextSpan].At == p.i {
		return p.spans[p.nextSpan], true
	}
	return cpp.Span{}, false
}

// skipSpan moves the parse past s, the span at p.i, whose declarations
// it took from the memo.
func (p *Parser) skipSpan(s cpp.Span) {
	p.nextSpan++
	if p.flat {
		p.i += len(s.Tokens)
	} else {
		p.recut()
	}
}

// recut cuts the compact stream at the next span.
func (p *Parser) recut() {
	end := len(p.own)
	if p.nextSpan < len(p.spans) {
		end = p.spans[p.nextSpan].At
	}
	p.toks = p.own[:end]
}

// flatten switches a compact parse to the flat stream: p.i and the spans'
// At become flat offsets.
func (p *Parser) flatten() {
	flat := (&cpp.Result{Tokens: p.own, Spans: p.spans}).Flat()
	spans := make([]cpp.Span, len(p.spans))
	shift := 0
	for j, s := range p.spans {
		if j == p.nextSpan {
			p.i += shift
		}
		s.At += shift
		spans[j] = s
		shift += len(s.Tokens)
	}
	if p.nextSpan == len(p.spans) {
		p.i += shift
	}
	p.toks, p.spans, p.flat = flat, spans, true
	p.tokensFlattened += int64(len(flat))
}

// compactDecl parses one top-level declaration of the file's own tokens
// before the next span. It reports false, with the parser state
// restored, when the declaration read past the span's splice point: it
// continues into the span, so it must be parsed over the flat stream.
func (p *Parser) compactDecl() bool {
	i, nerrs, hash := p.i, len(p.errs), p.tdHash
	p.past, p.tdLog = false, []string{}
	d := p.topDecl()
	declared := p.tdLog
	p.tdLog = nil
	if !p.past {
		if d != nil {
			p.decls = append(p.decls, d)
		}
		return true
	}
	for _, name := range declared {
		delete(p.typedefs, name)
	}
	p.i, p.errs, p.tdHash = i, p.errs[:nerrs], hash
	return false
}

// shareSpan handles the header span s, which starts at p.i: it takes the
// span's stored parse into the file, or parses the span into a memo entry
// and stores it. It reports false, with the parser state untouched, when
// the span must be parsed in line.
func (p *Parser) shareSpan(s cpp.Span) bool {
	k := headerKey{span: s.Key, typedefs: p.tdHash}
	e := p.memo.lookup(k)
	hit := e != nil
	if !hit {
		e = p.parseSpan(s)
		p.memo.store(k, e)
	}
	if e.ineligible {
		return false
	}
	if hit {
		for _, name := range e.typedefs {
			p.addTypedef(name)
		}
		p.declsShared += int64(len(e.decls))
		p.tokensShared += int64(len(s.Tokens))
	}
	if len(e.decls) > 0 {
		p.shared = append(p.shared, sharedRun{at: len(p.decls), decls: e.decls})
	}
	p.appendErrs(e.errs)
	return true
}

// parseSpan parses the top-level declarations of s from a fresh arena,
// over the span's own tokens so any look past the span shows as a read
// beyond the end. An eligible parse leaves the span's typedefs declared;
// an ineligible one restores the typedef set. Either way the parser is
// back at p.i.
func (p *Parser) parseSpan(s cpp.Span) *headerEntry {
	toks, i, errs, arena, hash := p.toks, p.i, p.errs, p.arena, p.tdHash
	p.toks, p.i, p.errs, p.arena = s.Tokens, 0, nil, new(cast.Arena)
	p.past, p.tdLog = false, []string{} // non-nil: log the span's typedefs
	var decls []cast.Decl
	for p.i < len(p.toks) && !p.past {
		if d := p.topDecl(); d != nil {
			decls = append(decls, d)
		}
	}
	e := &headerEntry{decls: decls, typedefs: p.tdLog, errs: p.errs, tokens: len(s.Tokens)}
	past := p.past
	p.toks, p.i, p.errs, p.arena, p.tdLog = toks, i, errs, arena, nil
	if past {
		for _, name := range e.typedefs {
			delete(p.typedefs, name)
		}
		p.tdHash = hash
		return &headerEntry{ineligible: true}
	}
	return e
}

// appendErrs records a span's errors as parsing it in line would have:
// after the file's earlier errors, up to the file's cap.
func (p *Parser) appendErrs(errs []error) {
	if n := maxErrors - len(p.errs); n < len(errs) {
		errs = errs[:max(n, 0)]
	}
	p.errs = append(p.errs, errs...)
}

// Shared reports how many top-level declarations, and how many tokens,
// this parse took from the header memo instead of parsing them.
func (p *Parser) Shared() (decls, tokens int64) { return p.declsShared, p.tokensShared }

// Flattened reports how many tokens of flat stream this parse built: zero
// unless it had to read inside a span it did not take from the memo.
func (p *Parser) Flattened() int64 { return p.tokensFlattened }
