package cparser

import (
	"hash/maphash"
	"sync"

	"ofence/internal/cast"
	"ofence/internal/cpp"
)

// HeaderMemo shares header parses between files. The preprocessor reports
// which token ranges of a file are memoized header expansions (cpp.Span);
// the top-level declarations of such a range are a function of its tokens
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

// shareSpan handles the header span s, which starts at p.i: it appends the
// span's stored parse to f, or parses the span into a memo entry and
// stores it. It reports false, with the parser state untouched, when the
// span must be parsed in line.
func (p *Parser) shareSpan(f *cast.File, s cpp.Span) bool {
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
		p.i = s.End
		p.declsShared += int64(len(e.decls))
		p.tokensShared += int64(s.End - s.Start)
	}
	f.Decls = append(f.Decls, e.decls...)
	p.appendErrs(e.errs)
	return true
}

// parseSpan parses the top-level declarations of s from a fresh arena,
// over the token stream cut at s.End so any look past the span shows as a
// read beyond the end. An eligible parse leaves the parser at s.End with
// the span's typedefs declared; an ineligible one restores p.i and the
// typedef set.
func (p *Parser) parseSpan(s cpp.Span) *headerEntry {
	toks, errs, arena, hash := p.toks, p.errs, p.arena, p.tdHash
	p.toks, p.errs, p.arena = toks[:s.End], nil, new(cast.Arena)
	p.past, p.tdLog = false, []string{} // non-nil: log the span's typedefs
	var decls []cast.Decl
	for p.i < s.End && !p.past {
		if d := p.topDecl(); d != nil {
			decls = append(decls, d)
		}
	}
	e := &headerEntry{decls: decls, typedefs: p.tdLog, errs: p.errs, tokens: s.End - s.Start}
	past := p.past
	p.toks, p.errs, p.arena, p.tdLog = toks, errs, arena, nil
	if past {
		for _, name := range e.typedefs {
			delete(p.typedefs, name)
		}
		p.i, p.tdHash = s.Start, hash
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
