package cparser_test

import (
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ofence/internal/cast"
	"ofence/internal/corpus"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/ctoken"
	"ofence/internal/kernelhdr"
	"ofence/internal/sitegen"
)

// sameParse returns an error unless got (a parse through a header memo) is
// indistinguishable from want (a fresh parse of the same tokens): every
// declaration prints the same at the same position, the errors match in
// order, and the final typedef sets are equal.
func sameParse(want *cparser.Parser, wf *cast.File, got *cparser.Parser, gf *cast.File) error {
	if len(wf.Decls) != len(gf.Decls) {
		return fmt.Errorf("%d decls, fresh %d", len(gf.Decls), len(wf.Decls))
	}
	for i := range wf.Decls {
		w, g := cast.Print(wf.Decls[i]), cast.Print(gf.Decls[i])
		if w != g || wf.Decls[i].Pos() != gf.Decls[i].Pos() {
			return fmt.Errorf("decl %d at %s:\n%s\nfresh at %s:\n%s", i, gf.Decls[i].Pos(), g, wf.Decls[i].Pos(), w)
		}
	}
	we, ge := want.Errors(), got.Errors()
	if len(we) != len(ge) {
		return fmt.Errorf("%d errors, fresh %d", len(ge), len(we))
	}
	for i := range we {
		if we[i].Error() != ge[i].Error() {
			return fmt.Errorf("error %d: %q, fresh %q", i, ge[i], we[i])
		}
	}
	if !maps.Equal(want.TypedefsForTest(), got.TypedefsForTest()) {
		return fmt.Errorf("typedefs %v, fresh %v", got.TypedefsForTest(), want.TypedefsForTest())
	}
	return nil
}

// parsers are the hot-path constructors that consult a header memo.
var parsers = map[string]func([]ctoken.Token, []cpp.Span, *cparser.HeaderMemo) *cparser.Parser{
	"arena":   cparser.New,
	"noarena": cparser.NewNoArena,
}

// checkShared parses pre's flat stream fresh, pre's compact stream without
// a memo, and pre's compact stream through hm with every hot-path parser,
// and compares the parses. It returns the declarations and the tokens the
// memo parses shared.
func checkShared(name string, pre *cpp.Result, hm *cparser.HeaderMemo) (decls, tokens int64, err error) {
	fresh := cparser.New(pre.Flat(), nil, nil)
	ff := fresh.ParseFile(name)
	flat := cparser.New(pre.Tokens, pre.Spans, nil)
	if err := sameParse(fresh, ff, flat, flat.ParseFile(name)); err != nil {
		return 0, 0, fmt.Errorf("%s (compact stream, no memo): %v", name, err)
	}
	if n := flat.Flattened(); len(pre.Spans) > 0 && n != int64(pre.Len()) {
		return 0, 0, fmt.Errorf("%s: %d tokens flattened without a memo, stream %d", name, n, pre.Len())
	}
	for _, kind := range []string{"arena", "noarena"} {
		p := parsers[kind](pre.Tokens, pre.Spans, hm)
		f := p.ParseFile(name)
		if err := sameParse(fresh, ff, p, f); err != nil {
			return 0, 0, fmt.Errorf("%s (%s parser): %v", name, kind, err)
		}
		d, n := p.Shared()
		if d > 0 && cap(f.Decls) != len(f.Decls) {
			return 0, 0, fmt.Errorf("%s (%s parser): %d declarations in a slice of capacity %d", name, kind, len(f.Decls), cap(f.Decls))
		}
		decls += d
		tokens += n
	}
	return decls, tokens, nil
}

type srcFile struct{ name, src string }

// checkFiles preprocesses files in order through one preprocessor memo,
// twice, so the second pass replays every header, and holds each file's
// parses through hm to a fresh parse. It returns the declarations shared.
func checkFiles(t *testing.T, opts cpp.Options, hm *cparser.HeaderMemo, files []srcFile) int64 {
	t.Helper()
	if opts.Memo == nil {
		opts.Memo = cpp.NewMemo(opts.Syms)
	}
	var shared int64
	for pass := 0; pass < 2; pass++ {
		for _, f := range files {
			d, _, err := checkShared(f.name, cpp.Preprocess(f.name, f.src, opts), hm)
			if err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
			shared += d
		}
	}
	return shared
}

func TestHeaderMemoCorpus(t *testing.T) {
	var files []srcFile
	for _, sf := range corpus.Generate(corpus.DefaultConfig(42)).Sources() {
		files = append(files, srcFile{sf.Name, sf.Src})
	}
	shared := checkFiles(t, cpp.Options{Include: kernelhdr.Headers(), Syms: ctoken.NewSymTab()}, cparser.NewHeaderMemo(), files)
	if shared == 0 {
		t.Fatal("no declaration of the corpus headers was shared")
	}
}

func TestHeaderMemoFixtures(t *testing.T) {
	var files []srcFile
	for _, fx := range corpus.Fixtures() {
		files = append(files, srcFile{fx.Name, fx.Source})
		if fx.Fixed != "" {
			files = append(files, srcFile{"fixed/" + fx.Name, fx.Fixed})
		}
	}
	checkFiles(t, cpp.Options{Include: kernelhdr.Headers()}, cparser.NewHeaderMemo(), files)
}

// TestHeaderMemoTreeConcurrent parses a generated tree under both halves of
// its config symbols with eight workers sharing one preprocessor memo and
// one header memo; every file's memo parse must equal its fresh parse, and
// nearly every declaration must come from the memo.
func TestHeaderMemoTreeConcurrent(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(256, 1))
	include := kernelhdr.Headers()
	for _, h := range tr.Headers {
		include[h.Name] = h.Src
	}
	syms := ctoken.NewSymTab()
	memo, hm := cpp.NewMemo(syms), cparser.NewHeaderMemo()
	for half := 0; half < 2; half++ {
		defines := map[string]string{}
		for i, c := range tr.Configs {
			if i%2 == half {
				defines[c] = "1"
			}
		}
		opts := cpp.Options{Include: include, Defines: defines, Syms: syms, Memo: memo}
		var next, decls, shared atomic.Int64
		var mu sync.Mutex
		var errs []error
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(tr.Files); i = int(next.Add(1)) - 1 {
					f := tr.Files[i]
					pre := cpp.Preprocess(f.Name, f.Src, opts)
					d, _, err := checkShared(f.Name, pre, hm)
					if err != nil {
						mu.Lock()
						errs = append(errs, err)
						mu.Unlock()
						return
					}
					shared.Add(d)
					decls.Add(2 * int64(len(cparser.New(pre.Flat(), nil, nil).ParseFile(f.Name).Decls)))
				}
			}()
		}
		wg.Wait()
		if len(errs) > 0 {
			t.Fatalf("half %d: %v", half, errs[0])
		}
		if s, d := shared.Load(), decls.Load(); s*10 < d*9 {
			t.Fatalf("half %d: %d of %d declarations shared, want at least 90%%", half, s, d)
		}
	}
}

// memoCase runs files (in order, twice) through one preprocessor memo and
// one header memo, holding every parse to a fresh one, and returns the
// header memo.
func memoCase(t *testing.T, header string, files ...string) (*cparser.HeaderMemo, int64) {
	t.Helper()
	hm := cparser.NewHeaderMemo()
	var fs []srcFile
	for i, src := range files {
		fs = append(fs, srcFile{fmt.Sprintf("f%d.c", i), src})
	}
	shared := checkFiles(t, cpp.Options{Include: map[string]string{"h.h": header}}, hm, fs)
	return hm, shared
}

func wantEntries(t *testing.T, hm *cparser.HeaderMemo, stored, ineligible int) {
	t.Helper()
	if s, i := hm.EntriesForTest(); s != stored || i != ineligible {
		t.Fatalf("memo holds %d stored and %d ineligible entries, want %d and %d", s, i, stored, ineligible)
	}
}

func TestHeaderMemoStoresWholeDeclarations(t *testing.T) {
	hm, shared := memoCase(t, "struct s { int a; };\nint g;\n",
		"#include \"h.h\"\nint x;\n", "#include \"h.h\"\nvoid f(struct s *p) { p->a = g; }\n")
	wantEntries(t, hm, 1, 0)
	// Two files, two passes, two parsers: the first parse stores the
	// header's two declarations and the other seven replay them.
	if shared != 7*2 {
		t.Fatalf("%d declarations shared, want 14", shared)
	}
}

func TestHeaderMemoHeaderEndsMidDeclaration(t *testing.T) {
	hm, shared := memoCase(t, "struct half {\n\tint a;\n",
		"#include \"h.h\"\n\tint b;\n};\nint after;\n")
	wantEntries(t, hm, 0, 1)
	if shared != 0 {
		t.Fatalf("%d declarations shared from a header that ends mid-declaration", shared)
	}
}

func TestHeaderMemoLookaheadPastSpan(t *testing.T) {
	// The struct's closing ';' is in the includer: the parser must read
	// past the header to finish the declaration.
	hm, shared := memoCase(t, "struct s { int a; }\n",
		"#include \"h.h\"\n;\nint x;\n", "#include \"h.h\"\nvar_of_s;\n")
	wantEntries(t, hm, 0, 1)
	if shared != 0 {
		t.Fatalf("%d declarations shared past the span end", shared)
	}
}

// TestHeaderMemoIneligibleRollsBack: a header whose last typedef is
// finished by the includer is parsed twice — cut at the span end, where
// the parser declares a typedef the in-line parse does not, then in line —
// so the first parse's typedefs must be rolled back.
func TestHeaderMemoIneligibleRollsBack(t *testing.T) {
	hm, _ := memoCase(t, "typedef struct { int a; }\n", "#include \"h.h\"\nfoo_t;\nfoo_t v;\n")
	wantEntries(t, hm, 0, 1)
}

func TestHeaderMemoIncluderTypedefKey(t *testing.T) {
	// The header parses differently when its includer declared myint.
	header := "myint *p;\nstruct box { myint v; };\n"
	with := "typedef int myint;\n#include \"h.h\"\n"
	without := "#include \"h.h\"\n"
	hm, _ := memoCase(t, header, with, without)
	wantEntries(t, hm, 2, 0)
	opts := cpp.Options{Include: map[string]string{"h.h": header}}
	a := cparser.New(cpp.Preprocess("a.c", with, opts).Flat(), nil, nil).ParseFile("a.c")
	b := cparser.New(cpp.Preprocess("b.c", without, opts).Flat(), nil, nil).ParseFile("b.c")
	if len(a.Decls) == len(b.Decls) {
		t.Fatal("the includer's typedef does not change the header's parse; the case tests nothing")
	}
}

func TestHeaderMemoHeaderTypedefUsedAfterInclude(t *testing.T) {
	src := "#include \"h.h\"\nhword counter;\nvoid f(struct hs *p) { hword x = (hword)p->w; p->w = x; }\n"
	hm, shared := memoCase(t, "typedef unsigned long hword;\nstruct hs { hword w; };\n", src, src)
	wantEntries(t, hm, 1, 0)
	if shared == 0 {
		t.Fatal("header typedef not shared")
	}
	f := cparser.New(cpp.Preprocess("a.c", src, cpp.Options{Include: map[string]string{"h.h": "typedef unsigned long hword;\n"}}).Flat(), nil, nil).ParseFile("a.c")
	found := false
	for _, d := range f.Decls {
		if vd, ok := d.(*cast.VarDecl); ok && vd.Name == "counter" {
			found = true
		}
	}
	if !found {
		t.Fatal("hword counter is not a variable: the header typedef is unknown after the include")
	}
}

func TestHeaderMemoErrorCap(t *testing.T) {
	bad := func(n int) string { return strings.Repeat("int = ;\n", n) }
	// Ten errors in the header; includers that reach the cap before,
	// inside and after the header's span, and a header that alone
	// overflows the cap.
	hm, _ := memoCase(t, bad(10),
		"#include \"h.h\"\n"+bad(1),
		bad(95)+"#include \"h.h\"\n"+bad(3),
		bad(120)+"#include \"h.h\"\nint ok;\n",
		bad(90)+"#include \"h.h\"\n"+bad(5))
	wantEntries(t, hm, 1, 0)
	hm, _ = memoCase(t, bad(150), "#include \"h.h\"\nint ok;\n", bad(3)+"#include \"h.h\"\n")
	wantEntries(t, hm, 1, 0)
}

func TestHeaderMemoTwoMacroStates(t *testing.T) {
	header := "#ifdef CONFIG_A\nstruct cfg { int a; };\n#else\nstruct cfg { long b; unsigned c; };\n#endif\nint shared_tail;\n"
	src := "#include \"h.h\"\nint use(struct cfg *c) { return 0; }\n"
	include := map[string]string{"h.h": header}
	memo, hm := cpp.NewMemo(nil), cparser.NewHeaderMemo()
	keys := map[cpp.SpanKey]bool{}
	for pass := 0; pass < 2; pass++ {
		for _, defines := range []map[string]string{{"CONFIG_A": "1"}, nil} {
			pre := cpp.Preprocess("a.c", src, cpp.Options{Include: include, Defines: defines, Memo: memo})
			if len(pre.Spans) != 1 {
				t.Fatalf("spans = %v, want one", pre.Spans)
			}
			keys[pre.Spans[0].Key] = true
			if _, _, err := checkShared("a.c", pre, hm); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(keys) != 2 {
		t.Fatalf("%d distinct span keys over two macro states, want 2", len(keys))
	}
	wantEntries(t, hm, 2, 0)
}

// flattened parses pre through hm and returns how many tokens of flat
// stream the parse built.
func flattened(t *testing.T, pre *cpp.Result, hm *cparser.HeaderMemo) int64 {
	t.Helper()
	if _, _, err := checkShared("m.c", pre, hm); err != nil {
		t.Fatal(err)
	}
	p := cparser.New(pre.Tokens, pre.Spans, hm)
	p.ParseFile("m.c")
	return p.Flattened()
}

// TestFlatOnlyWhenNeeded: a parse builds the flat stream only when it must
// read inside a span it does not take from the memo — a header the memo
// rejects, or a declaration of the file that runs on into a header — and
// then parses exactly as over the flat stream.
func TestFlatOnlyWhenNeeded(t *testing.T) {
	cases := []struct {
		name, header, src string
		flat              bool
	}{
		{"shared header", "struct s { int a; };\ntypedef int T;\n", "T x;\n#include \"h.h\"\nT y;\n", false},
		{"adjacent includes", "int h;\n", "#include \"h.h\"\n#include \"g.h\"\nint x;\n", false},
		{"header ends mid-declaration", "struct half {\n\tint a;\n", "#include \"h.h\"\n\tint b;\n};\n", true},
		{"declaration runs into the header", ";\nint h;\n", "int x\n#include \"h.h\"\nint y;\n", true},
		{"typedef runs into the header", ";\nT y;\n", "typedef int T\n#include \"h.h\"\nT z;\n", true},
		{"error recovery runs into the header", "int h;\n", "int = \n#include \"h.h\"\nint y;\n", true},
	}
	for _, c := range cases {
		opts := cpp.Options{Include: map[string]string{"h.h": c.header, "g.h": "int g;\n"}, Memo: cpp.NewMemo(nil)}
		hm := cparser.NewHeaderMemo()
		for pass := 0; pass < 2; pass++ {
			pre := cpp.Preprocess("m.c", c.src, opts)
			if len(pre.Spans) == 0 {
				t.Fatalf("%s: no spans", c.name)
			}
			n := flattened(t, pre, hm)
			if c.flat && n != int64(pre.Len()) || !c.flat && n != 0 {
				t.Fatalf("%s pass %d: %d tokens flattened of %d", c.name, pass, n, pre.Len())
			}
		}
	}
}
