package cpp_test

import (
	"testing"

	"ofence/internal/corpus"
	"ofence/internal/cpp"
	"ofence/internal/ctoken"
	"ofence/internal/kernelhdr"
)

// TestMemoMatchesFreshDefaultCorpus runs the memo differential over the
// default generated corpus against the kernel headers.
func TestMemoMatchesFreshDefaultCorpus(t *testing.T) {
	var files [][2]string
	for _, sf := range corpus.Generate(corpus.DefaultConfig(42)).Sources() {
		files = append(files, [2]string{sf.Name, sf.Src})
	}
	opts := cpp.Options{Include: kernelhdr.Headers(), Syms: ctoken.NewSymTab()}
	if cpp.CheckMemoFiles(t, opts, files) == 0 {
		t.Fatal("no include was replayed")
	}
}

// TestMemoMatchesFreshFixtures runs the memo differential over the paper's
// fixtures, buggy and fixed.
func TestMemoMatchesFreshFixtures(t *testing.T) {
	var files [][2]string
	for _, fx := range corpus.Fixtures() {
		files = append(files, [2]string{fx.Name, fx.Source})
		if fx.Fixed != "" {
			files = append(files, [2]string{fx.Name + "(fixed)", fx.Fixed})
		}
	}
	cpp.CheckMemoFiles(t, cpp.Options{Include: kernelhdr.Headers(), Defines: map[string]string{"CONFIG_SMP": "1"}}, files)
}
