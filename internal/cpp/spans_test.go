package cpp

import (
	"reflect"
	"strings"
	"testing"
)

// spanText renders s.Tokens space-separated.
func spanText(s Span) string {
	var parts []string
	for _, t := range s.Tokens {
		parts = append(parts, t.Text)
	}
	return strings.Join(parts, " ")
}

// checkSpans fails t unless res's spans are ordered, non-empty and inside
// the token stream.
func checkSpans(t *testing.T, res *Result) {
	t.Helper()
	at := 0
	for _, s := range res.Spans {
		if s.At < at || len(s.Tokens) == 0 || s.At > len(res.Tokens) {
			t.Fatalf("bad spans %v over %d tokens", res.Spans, len(res.Tokens))
		}
		at = s.At
	}
}

func TestSpansOutermost(t *testing.T) {
	include := map[string]string{
		"outer.h": "#include \"inner.h\"\nstruct o { int x; };\n",
		"inner.h": "int inner;\n",
	}
	src := "int pre;\n#include \"outer.h\"\nint mid;\n#include \"inner.h\"\nint post;\n"
	if res := Preprocess("m.c", src, Options{Include: include}); res.Spans != nil {
		t.Fatalf("spans without a memo: %v", res.Spans)
	}
	memo := NewMemo(nil)
	var first []Span
	for pass := 0; pass < 2; pass++ {
		res := Preprocess("m.c", src, Options{Include: include, Memo: memo})
		checkSpans(t, res)
		if len(res.Spans) != 2 {
			t.Fatalf("pass %d: spans %v, want outer.h and the second inner.h", pass, res.Spans)
		}
		if got := spanText(res.Spans[0]); got != "int inner ; struct o { int x ; } ;" {
			t.Fatalf("pass %d: outer span %q", pass, got)
		}
		if got := spanText(res.Spans[1]); got != "int inner ;" {
			t.Fatalf("pass %d: inner span %q", pass, got)
		}
		if pass == 0 {
			first = res.Spans
		} else if !reflect.DeepEqual(first, res.Spans) {
			t.Fatalf("replayed spans %v, recorded %v", res.Spans, first)
		}
	}
	// The key is a content address: a second memo computes the same one.
	res := Preprocess("m.c", src, Options{Include: include, Memo: NewMemo(nil)})
	if res.Spans[0].Key != first[0].Key {
		t.Fatal("span key differs between memos")
	}
	if first[0].Key == first[1].Key {
		t.Fatal("different expansions share a span key")
	}
}

// TestSpansPoisonedOuter: a header cut short by the cycle guard is not
// stored, so the memo-backed include nested in it is the outermost span.
func TestSpansPoisonedOuter(t *testing.T) {
	src := "#include \"a.h\"\nint m;\n"
	include := map[string]string{
		"a.h": "#include \"b.h\"\nint a;\n#include \"m.c\"\n",
		"b.h": "int b;\n",
		"m.c": src,
	}
	memo := NewMemo(nil)
	for pass := 0; pass < 2; pass++ {
		res := Preprocess("m.c", src, Options{Include: include, Memo: memo})
		checkSpans(t, res)
		if len(res.Spans) != 1 || spanText(res.Spans[0]) != "int b ;" {
			t.Fatalf("pass %d: spans %v", pass, res.Spans)
		}
	}
}
