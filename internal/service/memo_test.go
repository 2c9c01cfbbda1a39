package service

import (
	"testing"

	"ofence/internal/cpp"
	"ofence/internal/rescache"
)

// TestContentKeyMemoUnchanged pins the result-cache key computed through
// the service's header memo to the unmemoized formula, across requests
// whose defines change the macro state the kernel headers expand under.
func TestContentKeyMemoUnchanged(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	opts := OptionsSpec{}.resolve()
	src := "#include <linux/compiler.h>\n#include <asm/barrier.h>\n" + testSrc +
		"\n#ifdef CONFIG_SMP\nint smp = likely(CONFIG_SMP);\n#endif\n"
	defineSets := []map[string]string{
		nil,
		{"CONFIG_SMP": "1"},
		{"CONFIG_SMP": "2", "_LINUX_COMPILER_H": ""},
		{"likely": "0"},
		nil,
		{"CONFIG_SMP": "1"},
	}
	seen := map[rescache.Key]bool{}
	for i, defs := range defineSets {
		req := &Request{Files: map[string]string{"a.c": src, "b.c": srcVariant(i)}, Defines: defs}
		got := s.contentKey(req, opts)
		parts := []string{}
		for _, name := range sortedNames(req.Files) {
			pre := cpp.Preprocess(name, req.Files[name], cpp.Options{Include: s.headers, Defines: defs})
			parts = append(parts, name, pre.Fingerprint(name))
		}
		if want := rescache.KeyOf(fingerprint(opts), parts...); got != want {
			t.Fatalf("request %d (defines %v): key %x through the memo, %x without", i, defs, got, want)
		}
		seen[got] = true
	}
	if len(seen) != len(defineSets) {
		t.Fatalf("%d distinct keys over %d requests with distinct sources", len(seen), len(defineSets))
	}
}
