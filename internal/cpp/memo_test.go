package cpp

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ofence/internal/ctoken"
	"ofence/internal/kernelhdr"
	"ofence/internal/sitegen"
)

// sameResult fails t unless got is indistinguishable from want: tokens,
// diagnostics in order, fingerprint and the final macro table.
func sameResult(t testing.TB, label, file string, want, got *Result) {
	t.Helper()
	wantToks, gotToks := want.Flat(), got.Flat()
	if len(wantToks) != len(gotToks) {
		t.Fatalf("%s: token count %d vs %d", label, len(wantToks), len(gotToks))
	}
	for i := range wantToks {
		if wantToks[i] != gotToks[i] {
			t.Fatalf("%s: token %d: %v @%s vs %v @%s", label, i,
				wantToks[i], wantToks[i].Pos, gotToks[i], gotToks[i].Pos)
		}
	}
	if len(want.Errors) != len(got.Errors) {
		t.Fatalf("%s: errors %v vs %v", label, want.Errors, got.Errors)
	}
	for i := range want.Errors {
		if want.Errors[i].Error() != got.Errors[i].Error() {
			t.Fatalf("%s: error %d: %q vs %q", label, i, want.Errors[i], got.Errors[i])
		}
	}
	if wf, gf := want.Fingerprint(file), got.Fingerprint(file); wf != gf {
		t.Fatalf("%s: fingerprint %s vs %s", label, wf, gf)
	}
	if !reflect.DeepEqual(want.Macros, got.Macros) {
		t.Fatalf("%s: final macro tables differ (%d vs %d macros)", label, len(want.Macros), len(got.Macros))
	}
}

// memoRun is one file preprocessed under shared options.
type memoRun struct{ name, src string }

// checkMemo preprocesses runs in order twice over one shared memo and
// compares every result to a fresh unmemoized run. It returns the number
// of replayed includes.
func checkMemo(t testing.TB, opts Options, runs []memoRun) int {
	t.Helper()
	memoOpts := opts
	memoOpts.Memo = NewMemo(opts.Syms)
	replayed := 0
	for pass := 0; pass < 2; pass++ {
		for _, r := range runs {
			want := Preprocess(r.name, r.src, opts)
			got := Preprocess(r.name, r.src, memoOpts)
			sameResult(t, fmt.Sprintf("pass %d %s", pass, r.name), r.name, want, got)
			// A replay stands for its header and every include under it.
			if got.replayed+got.expanded > want.expanded {
				t.Fatalf("%s: %d replayed + %d expanded includes, unmemoized %d", r.name, got.replayed, got.expanded, want.expanded)
			}
			replayed += got.replayed
		}
	}
	return replayed
}

func TestMemoMatchesFreshDiffCorpus(t *testing.T) {
	opts := Options{
		Include: map[string]string{"inc.h": "#define FROM_INC 7\nint inc_var = FROM_INC;\n"},
		Defines: map[string]string{"CONFIG_SMP": "1"},
		Syms:    ctoken.NewSymTab(),
	}
	var runs []memoRun
	for i, src := range preprocessDiffCorpus {
		runs = append(runs, memoRun{fmt.Sprintf("diff%02d.c", i), src})
	}
	if checkMemo(t, opts, runs) == 0 {
		t.Fatal("no include was replayed")
	}
}

// treeOptions returns the include map of a generated tree (kernel headers
// plus the tree's own) and its sources.
func treeOptions(files int) (map[string]string, *sitegen.Tree) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(files, 1))
	inc := kernelhdr.Headers()
	for _, h := range tr.Headers {
		inc[h.Name] = h.Src
	}
	return inc, tr
}

func TestMemoMatchesFreshTree(t *testing.T) {
	inc, tr := treeOptions(256)
	syms := ctoken.NewSymTab()
	memo := NewMemo(syms)
	for half := 0; half < 2; half++ {
		defines := map[string]string{}
		for i, c := range tr.Configs {
			if i%2 == half {
				defines[c] = "1"
			}
		}
		fresh := Options{Include: inc, Defines: defines, Syms: syms}
		memoed := fresh
		memoed.Memo = memo // one memo for both halves: defines are part of the state
		replayed := 0
		for _, f := range tr.Files {
			got := Preprocess(f.Name, f.Src, memoed)
			sameResult(t, fmt.Sprintf("half %d %s", half, f.Name), f.Name, Preprocess(f.Name, f.Src, fresh), got)
			replayed += got.replayed
		}
		if replayed < len(tr.Files) {
			t.Fatalf("half %d: %d includes replayed over %d files", half, replayed, len(tr.Files))
		}
	}
}

// TestMemoConcurrent shares one memo between goroutines that preprocess a
// tree's files in different orders, racing to record and replay the same
// headers.
func TestMemoConcurrent(t *testing.T) {
	inc, tr := treeOptions(64)
	syms := ctoken.NewSymTab()
	fresh := Options{Include: inc, Defines: map[string]string{tr.Configs[0]: "1"}, Syms: syms}
	want := make([]string, len(tr.Files))
	for i, f := range tr.Files {
		want[i] = Preprocess(f.Name, f.Src, fresh).Fingerprint(f.Name)
	}
	memoed := fresh
	memoed.Memo = NewMemo(syms)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range tr.Files {
				i := (j*(2*g+1) + g) % len(tr.Files)
				f := tr.Files[i]
				if got := Preprocess(f.Name, f.Src, memoed).Fingerprint(f.Name); got != want[i] {
					t.Errorf("goroutine %d, %s: fingerprint %s, unmemoized %s", g, f.Name, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestMemoHeaderRedefinesIncluderMacros(t *testing.T) {
	opts := Options{Include: map[string]string{
		"redef.h": "#undef A\n#define A 2\n#undef B\n#define F(x) (x + A)\nint in_redef = A;\n",
	}}
	checkMemo(t, opts, []memoRun{
		{"a.c", "#define A 1\n#define B 3\nint x = A + B;\n#include \"redef.h\"\nint y = A + B + F(1);\n#include \"redef.h\"\nint z = A + B;\n"},
		{"b.c", "#define B 3\n#include \"redef.h\"\nint y = A + B;\n"},
	})
}

func TestMemoSameHeaderDifferentDefines(t *testing.T) {
	opts := Options{
		Include: map[string]string{"cfg.h": "#ifdef FOO\nint foo_on = FOO;\n#else\nint foo_off;\n#endif\nint v = FOO;\n"},
		Defines: map[string]string{"BAR": "4"},
	}
	src := "#include \"cfg.h\"\n#define FOO 1\n#include \"cfg.h\"\n#undef FOO\n#include \"cfg.h\"\n#define FOO 2\n#include \"cfg.h\"\n"
	if checkMemo(t, opts, []memoRun{{"a.c", src}, {"b.c", "#define FOO 2\n#include \"cfg.h\"\n"}}) == 0 {
		t.Fatal("no include was replayed")
	}
}

func TestMemoIncludeCycleFromTwoRoots(t *testing.T) {
	opts := Options{Include: map[string]string{
		"a.h": "#include \"b.h\"\nint in_a;\n",
		"b.h": "#include \"a.h\"\nint in_b;\n",
		"c.h": "#include \"c.h\"\nint in_c;\n",
	}}
	checkMemo(t, opts, []memoRun{
		{"r1.c", "#include \"a.h\"\n#include \"b.h\"\n#include \"c.h\"\n"},
		{"r2.c", "#include \"b.h\"\n#include \"a.h\"\n"},
		{"r3.c", "#include \"c.h\"\n#include \"a.h\"\n#include \"c.h\"\n"},
	})
}

// TestMemoReplayBlockedByNestedFile records a.h while it replays b.h (which
// expanded c.h), then reaches a.h from inside c.h in the same macro state:
// the replay must be refused, because expanding a.h there would cut c.h.
func TestMemoReplayBlockedByNestedFile(t *testing.T) {
	opts := Options{Include: map[string]string{
		"a.h": "#include \"b.h\"\nint in_a;\n",
		"b.h": "#include \"c.h\"\nint in_b;\n",
		"c.h": "#ifdef GO\n#undef GO\n#include \"a.h\"\n#define GO\n#endif\nint in_c;\n",
	}}
	checkMemo(t, opts, []memoRun{
		{"r1.c", "#include \"b.h\"\n#include \"a.h\"\n"},
		{"r2.c", "#define GO\n#include \"c.h\"\n"},
	})
}

func TestMemoHeaderDiagnostics(t *testing.T) {
	opts := Options{Include: map[string]string{
		"bad.h":  "#if 1\n#error broken header\nint q = 1 @ 2;\n#endif\n#ifdef X\nint open;\n",
		"wrap.h": "#include \"bad.h\"\n#if 2 / 0\n#endif\nint w = \"unterminated\n",
	}}
	n := checkMemo(t, opts, []memoRun{
		{"a.c", "int before @;\n#include \"bad.h\"\n#include \"wrap.h\"\n#ifdef Y\n"},
		{"b.c", "#include \"wrap.h\"\nint after;\n"},
	})
	if n == 0 {
		t.Fatal("no include was replayed")
	}
}

// TestMemoBoundedUnderManyStates includes one header under 10,000 distinct
// macro states: the memo must stop storing at its cap while the output
// stays equal to the unmemoized run.
func TestMemoBoundedUnderManyStates(t *testing.T) {
	var hdr strings.Builder
	for i := 0; i < 22; i++ {
		fmt.Fprintf(&hdr, "int h%d = S;\n", i) // 5 tokens a line
	}
	var src strings.Builder
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&src, "#undef S\n#define S %d\n#include \"h.h\"\n", i)
	}
	opts := Options{Include: map[string]string{"h.h": hdr.String()}}
	memo := NewMemo(nil)
	memoOpts := opts
	memoOpts.Memo = memo
	want := Preprocess("many.c", src.String(), opts)
	got := Preprocess("many.c", src.String(), memoOpts)
	sameResult(t, "many.c", "many.c", want, got)
	if memo.cost > MemoMaxCost {
		t.Fatalf("memo cost %d over the cap %d", memo.cost, MemoMaxCost)
	}
	if len(memo.entries) >= 10000 {
		t.Fatalf("memo stored all %d states: the cap never engaged", len(memo.entries))
	}
	if memo.cost < MemoMaxCost-200 {
		t.Fatalf("memo stopped at cost %d, well under the cap", memo.cost)
	}
}

// defineLine matches a #define in the kernel headers: name, optional
// parameter list, body.
var defineLine = regexp.MustCompile(`(?m)^#define (\w+)(\([^)]*\))?[ \t]*(.*)$`)

// TestDefineMacrosMatchLegacy pins the scanner-built -D macros (fresh and
// memoized) to the legacy-lexer ones, for bodies taken from every kernel
// header #define and for every config symbol of a generated tree.
func TestDefineMacrosMatchLegacy(t *testing.T) {
	defines := map[string]string{}
	for _, src := range kernelhdr.Headers() {
		for _, m := range defineLine.FindAllStringSubmatch(src, -1) {
			defines["KH_"+m[1]] = m[3]
		}
	}
	_, tr := treeOptions(64)
	for _, c := range tr.Configs {
		defines[c] = "1"
	}
	if len(defines) < 20 {
		t.Fatalf("only %d defines collected", len(defines))
	}
	var src strings.Builder
	for path := range kernelhdr.Headers() {
		fmt.Fprintf(&src, "#include <%s>\n", path)
	}
	opts := Options{Include: kernelhdr.Headers(), Defines: defines}
	legacyOpts := opts
	legacyOpts.LegacyLexer = true
	want := Preprocess("defs.c", src.String(), legacyOpts)
	syms := ctoken.NewSymTab()
	memo := NewMemo(syms)
	for i, o := range []Options{opts, {Include: opts.Include, Defines: defines, Syms: syms, Memo: memo}} {
		for pass := 0; pass < 2; pass++ {
			got := Preprocess("defs.c", src.String(), o)
			if !reflect.DeepEqual(want.Macros, got.Macros) {
				for name, m := range want.Macros {
					if !reflect.DeepEqual(m, got.Macros[name]) {
						t.Fatalf("options %d pass %d: macro %s: legacy %+v, scanner %+v", i, pass, name, m, got.Macros[name])
					}
				}
				t.Fatalf("options %d pass %d: macro tables differ (%d vs %d)", i, pass, len(want.Macros), len(got.Macros))
			}
		}
	}
}

// FuzzPreprocessMemo preprocesses two files sharing two fuzzed headers
// with and without a shared memo and requires equal results.
func FuzzPreprocessMemo(f *testing.F) {
	f.Add("#include \"h1.h\"\nint a = X;\n#include \"h2.h\"\n", "#define X 2\n#include \"h2.h\"\n#include \"h1.h\"\n",
		"#ifndef H1\n#define H1\n#define X 1\nint h1;\n#endif\n", "#include \"h1.h\"\n#undef X\nint h2 = X;\n")
	f.Add("#include \"h1.h\"\n", "#include \"h2.h\"\n", "#include \"h2.h\"\nint in1;\n", "#include \"h1.h\"\nint in2;\n")
	f.Add("#include <h1.h>\n#include <h1.h>\n", "#define Y\n#include \"h1.h\"\n",
		"#ifdef Y\n#error y\n#endif\n#if 1/0\n#endif\nint q @;\n#ifdef Z\n", "#define F(a, ...) a(__VA_ARGS__)\nF(g, 1, 2);\n")
	for _, src := range preprocessDiffCorpus {
		f.Add(src, "#include \"h1.h\"\n"+src, src, "#include \"h2.h\"\n")
	}
	f.Fuzz(func(t *testing.T, a, b, h1, h2 string) {
		// Macro expansion is exponential in the nesting depth (a body of n
		// copies of its argument, nested d deep, emits n^d tokens), so the
		// inputs stay small and the depth bound low enough that every input
		// finishes quickly.
		if len(a)+len(b)+len(h1)+len(h2) > 1<<10 {
			t.Skip()
		}
		opts := Options{
			Include:           map[string]string{"h1.h": h1, "h2.h": h2},
			Defines:           map[string]string{"D": "1"},
			MaxExpansionDepth: 2,
		}
		runs := []memoRun{{"a.c", a}, {"b.c", b}}
		// checkMemo holds the flattened compact stream and the fingerprint
		// of every memo run to the fresh run's.
		checkMemo(t, opts, runs)
		// The streamed structural fingerprint is also the one recomputed
		// from the compact result's fields.
		memoOpts := opts
		memoOpts.Memo = NewMemo(nil)
		for pass := 0; pass < 2; pass++ {
			for _, r := range runs {
				got := Preprocess(r.name, r.src, memoOpts)
				rebuilt := &Result{Tokens: got.Tokens, Spans: got.Spans, Errors: got.Errors, segs: got.segs}
				if want, re := got.Fingerprint(r.name), rebuilt.Fingerprint(r.name); want != re {
					t.Fatalf("pass %d %s: fingerprint streamed %s, recomputed %s", pass, r.name, want, re)
				}
			}
		}
	})
}
