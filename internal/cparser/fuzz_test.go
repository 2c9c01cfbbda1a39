package cparser_test

import (
	"testing"

	"ofence/internal/corpus"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/kernelhdr"
)

// FuzzParseSource asserts the parser's robustness contract: arbitrary input
// — however malformed — must come back as (AST, errors), never a panic. The
// corpus is seeded with the paper fixtures plus kernel-idiom snippets so the
// fuzzer mutates realistic C, not just noise.
func FuzzParseSource(f *testing.F) {
	for _, fx := range corpus.Fixtures() {
		f.Add(fx.Source)
	}
	for _, seed := range []string{
		"",
		"int x;",
		"struct s { int flag; int data; };\nvoid w(struct s *p) { p->data = 1; smp_wmb(); p->flag = 1; }",
		"void r(int *p) { if (READ_ONCE(*p)) smp_rmb(); }",
		"#define A(x) ((x) + 1)\nint f(void) { return A(A(2)); }",
		"#include \"linux/rcupdate.h\"\nvoid g(void) { rcu_read_lock(); rcu_read_unlock(); }",
		"void bad( { ) } ;; struct",
		"int a = 0x; char *s = \"unterminated",
		"/* unterminated comment int x;",
		"void deep(void) { if (1) { while (0) { do { } while (1); } } }",
		"typedef void (*cb_t)(void); cb_t handler = 0;",
	} {
		f.Add(seed)
	}
	headers := kernelhdr.Headers()
	f.Fuzz(func(t *testing.T, src string) {
		ast, errs := cparser.ParseSource("fuzz.c", src, cpp.Options{Include: headers})
		// Malformed input may produce errors and a partial AST; both are
		// fine. A nil AST with no errors would lose input silently.
		if ast == nil && len(errs) == 0 {
			t.Errorf("nil AST with no errors for %q", src)
		}
	})
}

// FuzzParseMemo is the header-parse memo's differential: for arbitrary
// header and includer bytes, every parse through a shared header memo —
// the miss that stores (or rejects) the header's parse and the hits that
// replay it — equals a fresh parse of the same tokens.
func FuzzParseMemo(f *testing.F) {
	f.Add("struct s { int a; };\ntypedef int hint;\n", "", "hint x;\n")
	f.Add("struct half {\n\tint a;\n", "", "\tint b;\n};\n")
	f.Add("struct s { int a; }\n", "int y;\n", ";\nint x;\n")
	f.Add("myint *p;\n", "typedef int myint;\n", "myint q;\n")
	f.Add("int = ;\nint = ;\n", "int = ;\n", "int ok;\n")
	f.Add("#ifdef A\nint a;\n#else\nlong b;\n#endif\n", "#define A 1\n", "void f(void) { a = 1; }\n")
	f.Add("static inline void w(int *p) { smp_wmb(); *p = 1; }\n", "", "void g(int *p) { w(p); }\n")
	f.Add(";\nT y;\n", "typedef int T", "T z;\n")
	f.Add("int h;\n", "int = ", "int y;\n")
	f.Fuzz(func(t *testing.T, header, before, after string) {
		// Macro expansion is exponential in the nesting depth, so the
		// inputs stay small and the depth bound low (as in
		// FuzzPreprocessMemo).
		if len(header)+len(before)+len(after) > 1<<10 {
			t.Skip()
		}
		opts := cpp.Options{Include: map[string]string{"h.h": header}, MaxExpansionDepth: 2, Memo: cpp.NewMemo(nil)}
		hm := cparser.NewHeaderMemo()
		inc := "\n#include \"h.h\"\n"
		for pass := 0; pass < 2; pass++ {
			for _, src := range []string{before + inc + after, inc + after + inc} {
				if _, _, err := checkShared("fuzz.c", cpp.Preprocess("fuzz.c", src, opts), hm); err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
			}
		}
	})
}
