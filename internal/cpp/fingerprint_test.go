package cpp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ofence/internal/ctoken"
)

// fpCase is one file preprocessed against its own headers.
type fpCase struct {
	name, file, src string
	include         map[string]string
	defines         map[string]string
}

// fpCases cover the include structures the structural fingerprint must
// agree on across fresh, memo and legacy-lexer runs.
var fpCases = []fpCase{
	{name: "empty include under a guard", file: "m.c",
		src:     "#include \"g.h\"\nint x;\n#include \"g.h\"\nint y;\n",
		include: map[string]string{"g.h": "#ifndef G_H\n#define G_H\nint g;\n#endif\n"}},
	{name: "include inside #ifdef", file: "m.c",
		src:     "#ifdef CONFIG_A\n#include \"a.h\"\n#else\n#include \"b.h\"\n#endif\nint x = A;\n",
		include: map[string]string{"a.h": "#define A 1\nint a;\n", "b.h": "#define A 2\nint b;\n"},
		defines: map[string]string{"CONFIG_A": "1"}},
	{name: "nested includes", file: "m.c",
		src: "int pre;\n#include \"a.h\"\nint mid;\n#include \"c.h\"\n#include \"b.h\"\nint post;\n",
		include: map[string]string{
			"a.h": "#include \"b.h\"\nstruct a { int x; };\n",
			"b.h": "#include \"c.h\"\nint b;\n",
			"c.h": "int c;\n",
		}},
	{name: "header that emits diagnostics", file: "m.c",
		src: "int before @;\n#include \"bad.h\"\n#include \"wrap.h\"\nint after;\n",
		include: map[string]string{
			"bad.h":  "#if 1\n#error broken header\nint q = 1 @ 2;\n#endif\n#ifdef X\nint open;\n",
			"wrap.h": "#include \"bad.h\"\n#if 2 / 0\n#endif\nint w = \"unterminated\n",
		}},
	{name: "cycle through the main file", file: "m.c",
		src: "int m;\n#include \"h.h\"\n#include \"m.c\"\nint n;\n",
		include: map[string]string{
			"h.h": "int h;\n#include \"m.c\"\nint h2;\n",
			"m.c": "int m;\n#include \"h.h\"\n#include \"m.c\"\nint n;\n",
		}},
	{name: "outer include cut by the cycle guard", file: "m.c",
		src: "#include \"a.h\"\nint m;\n",
		include: map[string]string{
			"a.h": "#include \"b.h\"\n#include \"c.h\"\n#include \"m.c\"\n",
			"b.h": "int b;\n",
			"c.h": "int c;\n",
			"m.c": "#include \"a.h\"\nint m;\n",
		}},
	{name: "two adjacent includes", file: "m.c",
		src:     "#include \"a.h\"\n#include \"b.h\"\nint x;\n",
		include: map[string]string{"a.h": "int a;\n", "b.h": "int b;\n"}},
	{name: "include on the first and last line", file: "m.c",
		src:     "#include \"a.h\"\nint x;\n#include \"b.h\"",
		include: map[string]string{"a.h": "int a;\n", "b.h": "int b"}},
	{name: "include only", file: "m.c",
		src:     "#include \"a.h\"",
		include: map[string]string{"a.h": "#include \"b.h\"\n", "b.h": "int b;\n"}},
	{name: "unresolvable include", file: "m.c",
		src:     "#include \"missing.h\"\nint x;\n#include <a.h>\n",
		include: map[string]string{"a.h": "int a;\n"}},
}

// fingerprintRuns preprocesses c fresh, with the legacy lexer, and three
// times through memos: recording into an empty memo, replaying from it,
// and replaying entries another file recorded. It fails t unless every run
// has the fresh run's flat stream and errors, and returns the runs'
// fingerprints by label, each also recomputed from the result's fields.
func fingerprintRuns(t *testing.T, c fpCase) map[string]string {
	t.Helper()
	opts := Options{Include: c.include, Defines: c.defines, Syms: ctoken.NewSymTab()}
	legacy := opts
	legacy.Syms, legacy.LegacyLexer = nil, true
	memoed := opts
	memoed.Memo = NewMemo(opts.Syms)
	warm := opts
	warm.Memo = NewMemo(opts.Syms)
	Preprocess("other.c", c.src+"\nint other;\n", warm)

	fresh := Preprocess(c.file, c.src, opts)
	runs := map[string]*Result{
		"fresh":  fresh,
		"legacy": Preprocess(c.file, c.src, legacy),
		"record": Preprocess(c.file, c.src, memoed),
		"replay": Preprocess(c.file, c.src, memoed),
		"warm":   Preprocess(c.file, c.src, warm),
	}
	fps := map[string]string{}
	for label, r := range runs {
		sameResult(t, c.name+": "+label, c.file, fresh, r)
		fps[label] = r.Fingerprint(c.file)
		rebuilt := &Result{Tokens: r.Tokens, Spans: r.Spans, Errors: r.Errors, segs: r.segs, legacy: r.legacy}
		if got := rebuilt.Fingerprint(c.file); got != fps[label] {
			t.Fatalf("%s: %s fingerprint streamed %s, recomputed %s", c.name, label, fps[label], got)
		}
	}
	return fps
}

func TestStructuralFingerprintAgrees(t *testing.T) {
	for _, c := range fpCases {
		fps := fingerprintRuns(t, c)
		for label, fp := range fps {
			if fp != fps["fresh"] {
				t.Errorf("%s: %s fingerprint %s, fresh %s", c.name, label, fp, fps["fresh"])
			}
		}
	}
}

// TestStructuralFingerprintMemoFull: includes the memo cannot store are
// hashed token by token, and must still agree — whether nothing fits or
// only the nested header does.
func TestStructuralFingerprintMemoFull(t *testing.T) {
	include := map[string]string{
		"a.h": "#include \"b.h\"\nstruct a { int x; };\n",
		"b.h": "int b;\n#define B 2\n",
	}
	src := "#include \"a.h\"\nint x = B;\n#include \"b.h\"\n"
	opts := Options{Include: include}
	want := Preprocess("m.c", src, opts)
	probe := NewMemo(nil)
	Preprocess("p.c", "#include \"b.h\"\n", Options{Include: include, Memo: probe})
	for _, room := range []int{0, probe.cost} {
		memo := NewMemo(nil)
		memo.cost = MemoMaxCost - room
		memoed := opts
		memoed.Memo = memo
		for pass := 0; pass < 2; pass++ {
			got := Preprocess("m.c", src, memoed)
			sameResult(t, fmt.Sprintf("room %d pass %d", room, pass), "m.c", want, got)
			if room > 0 && (len(got.Spans) != 1 || got.Spans[0].At != 0) {
				t.Fatalf("room %d: spans %v, want the b.h include nested in a.h", room, got.Spans)
			}
		}
		if room == 0 && len(memo.entries) != 0 {
			t.Fatalf("a full memo stored %d entries", len(memo.entries))
		}
	}
}

// TestStructuralFingerprintSensitive: each edit changes the fingerprint, in
// every mode.
func TestStructuralFingerprintSensitive(t *testing.T) {
	base := fpCase{name: "base", file: "m.c",
		src:     "int x;\n#include \"a.h\"\n#include \"b.h\"\n;\nint y;\n",
		include: map[string]string{"a.h": "int a;\n", "b.h": "int b\n"}}
	edits := []fpCase{
		{name: "one header token changed", file: "m.c", src: base.src,
			include: map[string]string{"a.h": "int A;\n", "b.h": "int b\n"}},
		{name: "two includes swapped", file: "m.c",
			src:     "int x;\n#include \"b.h\"\n#include \"a.h\"\n;\nint y;\n",
			include: base.include},
		{name: "token moved across an include boundary", file: "m.c",
			src:     "int x;\n#include \"a.h\"\n#include \"b.h\"\n\nint y;\n",
			include: map[string]string{"a.h": "int a;\n", "b.h": "int b;\n"}},
		{name: "file renamed", file: "n.c", src: base.src, include: base.include},
	}
	want := fingerprintRuns(t, base)
	for _, e := range edits {
		got := fingerprintRuns(t, e)
		for label, fp := range got {
			if fp == want[label] {
				t.Errorf("%s: %s fingerprint unchanged", e.name, label)
			}
		}
	}
}

// TestStructuralFingerprintReplayHashesNothing: a file whose includes are
// all replayed hashes only its own tokens — its fingerprint is the one a
// run would compute from the segment digests alone.
func TestStructuralFingerprintReplayHashesNothing(t *testing.T) {
	include := map[string]string{"a.h": "int a;\n", "b.h": "#include \"a.h\"\nint b;\n"}
	src := "#include \"b.h\"\nint x;\n#include \"a.h\"\n"
	memo := NewMemo(nil)
	opts := Options{Include: include, Memo: memo}
	Preprocess("m.c", src, opts)
	got := Preprocess("m.c", src, opts)
	if got.replayed != 2 || len(got.Spans) != 2 || len(got.Tokens) != 3 {
		t.Fatalf("replayed %d, spans %d, own tokens %d", got.replayed, len(got.Spans), len(got.Tokens))
	}
	h := sha256.New()
	buf := hashSeed(h, nil, "m.c")
	h.Write(appendSegment(nil, got.Spans[0].Key))
	for _, tok := range got.Tokens {
		buf = hashToken(h, buf, tok)
	}
	h.Write(appendSegment(nil, got.Spans[1].Key))
	if want := hex.EncodeToString(h.Sum(nil)); got.Fingerprint("m.c") != want {
		t.Fatalf("fingerprint %s, from the segment digests %s", got.Fingerprint("m.c"), want)
	}
}
