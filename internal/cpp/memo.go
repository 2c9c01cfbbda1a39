package cpp

import (
	"encoding/binary"
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
// tokens, diagnostics, fingerprint preimage and net macro changes — instead
// of re-scanning the header. Output is byte-identical to an unmemoized run.
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
// under MemoMaxCost.
func (m *Memo) store(k memoKey, e *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[k]; ok || m.cost+e.cost() > MemoMaxCost {
		return
	}
	m.entries[k] = e
	m.cost += e.cost()
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
	depth                         int
	out, errs, pre, touched, seen int
	// poisoned marks that the cycle guard suppressed an include of a file
	// below the header on the stack: the expansion depends on the includer
	// chain, so it is not stored.
	poisoned bool
}

// includeFile expands the resolved header path, through the memo when the
// run has one: a stored expansion for the current macro state is replayed
// unless one of its files is on the include stack (the cycle guard would
// have cut it short); otherwise the header is expanded and recorded.
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
		out:   len(p.out), errs: len(p.errs), pre: len(p.hbuf),
		touched: len(p.touched), seen: len(p.seen),
	})
	p.hflush = math.MaxInt // keep the header's preimage in hbuf
	p.processFile(path, src)
	r := p.recs[len(p.recs)-1]
	p.recs = p.recs[:len(p.recs)-1]
	if !r.poisoned {
		p.memo.store(key, &memoEntry{
			toks:  append([]ctoken.Token(nil), p.out[r.out:]...),
			errs:  append([]error(nil), p.errs[r.errs:]...),
			pre:   append([]byte(nil), p.hbuf[r.pre:]...),
			delta: p.deltaSince(r.touched),
			files: uniq(p.seen[r.seen:]),
		})
	}
	if len(p.recs) == 0 {
		p.hflush = hashFlushAt
		p.touched, p.seen = p.touched[:0], p.seen[:0]
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
// have: tokens, diagnostics in order, the preimage bytes into the digest
// (or into hbuf, when an enclosing header is being recorded), then the
// header's net macro changes.
func (p *preprocessor) replay(e *memoEntry) {
	p.replayed++
	p.out = append(p.out, e.toks...)
	p.errs = append(p.errs, e.errs...)
	if len(p.recs) > 0 {
		p.hbuf = append(p.hbuf, e.pre...)
		p.seen = append(p.seen, e.files...)
	} else {
		p.flushHash()
		p.h.Write(e.pre)
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
