package cpp

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"hash/maphash"
	"math"
	"sync"

	"ofence/internal/ctoken"
)

// MemoMaxCost caps what one Memo stores, in tokens: every stored header
// expansion costs its emitted tokens plus one per entry, diagnostic and
// macro it defines, and every cached -D macro costs its body plus one. Past
// the cap nothing new is stored; includes that miss run unmemoized.
const MemoMaxCost = 1 << 20

// Memo shares header expansions between preprocessor runs. Each header is
// expanded once per (include path, macro-table state at entry); every later
// #include of that path in that state replays the recorded expansion — its
// tokens, spliced in by reference as a Span, its diagnostics and its net
// macro changes — instead of re-scanning the header. The flat stream,
// diagnostics, fingerprint and macro table are those of an unmemoized run.
//
// A Memo is bound to one include map and one symbol table: every run that
// shares it must pass the same Options.Include contents and the same
// Options.Syms (a run with different Syms ignores the memo). Defines may
// differ between runs — they are part of the macro state. It is safe for
// concurrent use. The LegacyLexer path never consults it.
type Memo struct {
	syms *ctoken.SymTab

	mu      sync.Mutex
	entries map[memoKey]*memoEntry
	defs    map[[2]string]*Macro // -D macros by (name, body)
	cost    int
}

// NewMemo returns an empty memo for runs interning through syms (nil when
// the runs set no Options.Syms).
func NewMemo(syms *ctoken.SymTab) *Memo {
	return &Memo{syms: syms, entries: map[memoKey]*memoEntry{}, defs: map[[2]string]*Macro{}}
}

// memoKey identifies one header expansion: the include path, the macro
// state at entry and the expansion-depth bound the run used.
type memoKey struct {
	path     string
	state    [2]uint64
	maxDepth int
}

// memoEntry is one recorded header expansion. Entries are immutable once
// stored.
type memoEntry struct {
	toks  []ctoken.Token
	errs  []error
	pre   []byte       // the fingerprint preimage of toks, as hashTok wrote it
	delta []macroDelta // net macro changes; nil m means #undef
	files []string     // the header and every file it transitively expanded
	// key is the entry's content address (see SpanKey), set before the
	// entry is stored.
	key SpanKey
}

// SpanKey is the content address of a header expansion: the SHA-256 of its
// fingerprint preimage (every token's text and position) followed by every
// token's kind. Two expansions with the same key emit the same tokens, so
// the parse of one is the parse of the other. It is a digest, not a
// pointer, so it is the same in every process and survives serialization
// of a Result. It is also the segment digest of the structural fingerprint
// (see Result.Fingerprint).
type SpanKey [sha256.Size]byte

// Span is a memo-backed include spliced into Result.Tokens before index At:
// Tokens is the expansion, the stored tokens of the memo entry with content
// address Key. The memo entry is immutable and shared, so Tokens is read
// only. Adjacent includes give spans with equal At; empty expansions give
// no span.
type Span struct {
	At     int
	Key    SpanKey
	Tokens []ctoken.Token
}

// emptySpanKey is the segment digest of an include that expands to nothing.
var emptySpanKey = sumKinds(sha256.New(), nil, nil, 0)

// spanKey returns the SpanKey of the flat stream toks[from:] with spans
// spliced in (see appendFlat), whose fingerprint preimage is pre.
func spanKey(pre []byte, toks []ctoken.Token, spans []Span, from int) SpanKey {
	h := sha256.New()
	h.Write(pre)
	return sumKinds(h, toks, spans, from)
}

// sumKinds writes the kind of every token of the flat stream toks[from:]
// with spans spliced in to h, after the preimage h has already been given,
// and returns the digest.
func sumKinds(h hash.Hash, toks []ctoken.Token, spans []Span, from int) SpanKey {
	var arr [512]byte
	b := arr[:0]
	kinds := func(ts []ctoken.Token) {
		for _, t := range ts {
			if len(b) == cap(b) {
				h.Write(b)
				b = b[:0]
			}
			b = append(b, byte(t.Kind))
		}
	}
	for _, s := range spans {
		kinds(toks[from:s.At])
		kinds(s.Tokens)
		from = s.At
	}
	kinds(toks[from:])
	h.Write(b)
	var k SpanKey
	h.Sum(k[:0])
	return k
}

type macroDelta struct {
	name string
	m    *Macro
}

func (e *memoEntry) cost() int { return 1 + len(e.toks) + len(e.errs) + len(e.delta) }

func (m *Memo) lookup(k memoKey) *memoEntry {
	m.mu.Lock()
	e := m.entries[k]
	m.mu.Unlock()
	return e
}

// store keeps e under k unless k is already stored or e does not fit
// under MemoMaxCost. It returns the entry stored under k afterwards: e,
// the one stored first, or nil.
func (m *Memo) store(k memoKey, e *memoEntry) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries[k]; ok {
		return old
	}
	if m.cost+e.cost() > MemoMaxCost {
		return nil
	}
	m.entries[k] = e
	m.cost += e.cost()
	return e
}

// define returns the -D macro name=body, built once per memo while it fits
// under the cap.
func (m *Memo) define(name, body string) *Macro {
	k := [2]string{name, body}
	m.mu.Lock()
	defer m.mu.Unlock()
	if d := m.defs[k]; d != nil {
		return d
	}
	d := defineMacro(name, body, m.syms)
	if c := 1 + len(d.Body); m.cost+c <= MemoMaxCost {
		m.defs[k] = d
		m.cost += c
	}
	return d
}

// defineMacro builds the object-like macro a -D name=body seeds.
func defineMacro(name, body string, syms *ctoken.SymTab) *Macro {
	sc := ctoken.NewScanner("<define:"+name+">", body)
	sc.Syms = syms
	m := &Macro{Name: name, Body: sc.AppendAll(nil)}
	m.seal()
	return m
}

// macroSeeds key the two halves of every macro's 128-bit hash. The hashes
// only ever meet inside one process's memos, so per-process seeds suffice.
var macroSeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// seal computes m's content hash — name, parameters, flags and every body
// token's kind, text and position. It runs once, when the macro is built;
// a sealed macro is never mutated, so it may be shared through a Memo.
func (m *Macro) seal() {
	var arr [512]byte
	b := appendStr(arr[:0], m.Name)
	flags := byte(0)
	if m.IsFunc {
		flags |= 1
	}
	if m.Variadic {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(m.Params)))
	for _, prm := range m.Params {
		b = appendStr(b, prm)
	}
	for _, t := range m.Body {
		b = binary.AppendUvarint(b, uint64(t.Kind))
		b = appendStr(b, t.Text)
		b = appendStr(b, t.Pos.File)
		b = binary.AppendVarint(b, int64(t.Pos.Line))
		b = binary.AppendVarint(b, int64(t.Pos.Col))
	}
	m.hash = [2]uint64{maphash.Bytes(macroSeeds[0], b), maphash.Bytes(macroSeeds[1], b)}
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// setMacro installs m under name (m nil: #undef), keeping the macro-state
// hash — the XOR of every live macro's hash — current, and logging the
// name for any header being recorded.
func (p *preprocessor) setMacro(name string, m *Macro) {
	if old, ok := p.macros[name]; ok {
		p.state[0] ^= old.hash[0]
		p.state[1] ^= old.hash[1]
	}
	if m == nil {
		delete(p.macros, name)
	} else {
		p.macros[name] = m
		p.state[0] ^= m.hash[0]
		p.state[1] ^= m.hash[1]
		p.bloomAdd(name)
	}
	if len(p.recs) > 0 {
		p.touched = append(p.touched, name)
	}
}

// recording is one header expansion being captured for the memo: the
// header's include-stack depth and where its output starts in each of the
// preprocessor's streams.
type recording struct {
	depth                                int
	out, spans, errs, pre, touched, seen int
	// poisoned marks that the cycle guard suppressed an include of a file
	// below the header on the stack: the expansion depends on the includer
	// chain, so it is not stored.
	poisoned bool
}

// includeSegment expands an #include of the main file as one segment of the
// structural fingerprint: the preimage of everything the include emits
// stays in hbuf, and is replaced there by the segment's marker and digest.
// An include whose expansion is one span (or nothing) takes that span's
// key (or emptySpanKey) without hashing: it is the digest the tokens hash
// to.
func (p *preprocessor) includeSegment(path, src string) {
	out, spans, pre := len(p.out), len(p.spans), len(p.hbuf)
	start := len(p.out) + p.spanToks
	p.hflush = math.MaxInt
	p.includeFile(path, src)
	p.hflush = hashFlushAt
	p.segs = append(p.segs, segment{start, len(p.out) + p.spanToks})
	if p.h == nil {
		return // the legacy lexer: Fingerprint re-walks the tokens
	}
	var k SpanKey
	switch {
	case len(p.out) > out || len(p.spans) > spans+1:
		k = spanKey(p.hbuf[pre:], p.out, p.spans[spans:], out)
	case len(p.spans) == spans+1:
		k = p.spans[spans].Key
	default:
		k = emptySpanKey
	}
	p.hbuf = appendSegment(p.hbuf[:pre], k)
}

// includeFile expands the resolved header path, through the memo when the
// run has one: a stored expansion for the current macro state is replayed
// unless one of its files is on the include stack (the cycle guard would
// have cut it short); otherwise the header is expanded and recorded. Both
// leave the expansion in the output as a span, replacing its inline tokens
// and the spans nested in it.
func (p *preprocessor) includeFile(path, src string) {
	if p.memo == nil {
		p.processFile(path, src)
		return
	}
	key := memoKey{path: path, state: p.state, maxDepth: p.opts.MaxExpansionDepth}
	e := p.memo.lookup(key)
	if e != nil && p.replayable(e) {
		p.replay(e)
		return
	}
	if _, on := p.includes[path]; on || e != nil {
		// Cut by the cycle guard, or stored already and only blocked from
		// replay by the current stack: nothing new to record.
		p.processFile(path, src)
		return
	}
	p.recs = append(p.recs, recording{
		depth: len(p.includes) + 1,
		out:   len(p.out), spans: len(p.spans), errs: len(p.errs), pre: len(p.hbuf),
		touched: len(p.touched), seen: len(p.seen),
	})
	p.processFile(path, src)
	r := p.recs[len(p.recs)-1]
	p.recs = p.recs[:len(p.recs)-1]
	if !r.poisoned {
		nested := 0
		for _, s := range p.spans[r.spans:] {
			nested += len(s.Tokens)
		}
		e := &memoEntry{
			toks:  appendFlat(make([]ctoken.Token, 0, len(p.out)-r.out+nested), p.out, p.spans[r.spans:], r.out),
			errs:  append([]error(nil), p.errs[r.errs:]...),
			pre:   append([]byte(nil), p.hbuf[r.pre:]...),
			delta: p.deltaSince(r.touched),
			files: uniq(p.seen[r.seen:]),
		}
		e.key = spanKey(e.pre, e.toks, nil, 0)
		if e = p.memo.store(key, e); e != nil {
			clear(p.out[r.out:])
			p.out, p.spans, p.spanToks = p.out[:r.out], p.spans[:r.spans], p.spanToks-nested
			p.addSpan(e)
		}
	}
	if len(p.recs) == 0 {
		p.touched, p.seen = p.touched[:0], p.seen[:0]
	}
}

// addSpan splices e's expansion into the output at its end. Empty
// expansions are not recorded.
func (p *preprocessor) addSpan(e *memoEntry) {
	if len(e.toks) > 0 {
		p.spans = append(p.spans, Span{At: len(p.out), Key: e.key, Tokens: e.toks})
		p.spanToks += len(e.toks)
	}
}

// replayable reports whether none of e's files is on the include stack.
func (p *preprocessor) replayable(e *memoEntry) bool {
	for _, f := range e.files {
		if _, on := p.includes[f]; on {
			return false
		}
	}
	return true
}

// replay emits a stored expansion exactly as expanding the header would
// have: its tokens as a span, diagnostics in order, then the header's net
// macro changes. Below the main file's own includes, the preimage goes into
// hbuf for the enclosing segment or recording; an include of the main file
// is a whole segment, whose digest is e.key, so it hashes nothing.
func (p *preprocessor) replay(e *memoEntry) {
	p.replayed++
	p.addSpan(e)
	p.errs = append(p.errs, e.errs...)
	if len(p.includes) > 1 {
		p.hbuf = append(p.hbuf, e.pre...)
	}
	if len(p.recs) > 0 {
		p.seen = append(p.seen, e.files...)
	}
	for _, d := range e.delta {
		p.setMacro(d.name, d.m)
	}
}

// poison marks every recording deeper than depth: the cycle guard just
// suppressed a file at that depth, which a replay elsewhere might not.
func (p *preprocessor) poison(depth int) {
	for i := range p.recs {
		if p.recs[i].depth > depth {
			p.recs[i].poisoned = true
		}
	}
}

// deltaSince returns the current value of every macro name touched since
// the given log offset, each once.
func (p *preprocessor) deltaSince(start int) []macroDelta {
	names := uniq(p.touched[start:])
	if len(names) == 0 {
		return nil
	}
	out := make([]macroDelta, len(names))
	for i, name := range names {
		out[i] = macroDelta{name: name, m: p.macros[name]}
	}
	return out
}

// uniq returns the distinct strings of xs in first-seen order, in a fresh
// slice.
func uniq(xs []string) []string {
	if len(xs) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(xs))
	out := make([]string, 0, len(xs))
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
