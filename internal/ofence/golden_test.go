package ofence_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"ofence/internal/corpus"
	"ofence/internal/kernelhdr"
	"ofence/internal/ofence"
	"ofence/internal/sitegen"
)

// goldenJSON pins the SHA-256 of the CLI's indented -json output
// (json.MarshalIndent(res.View(), "", "  ") plus a newline) per input and
// InterprocDepth. The worker count must not reach the output, so every
// Workers setting of one input and depth shares one hash. A change to any
// of these is a change to the tool's output, not a refactor.
var goldenJSON = map[string]string{
	"corpus/depth0":   "b52ece8f9bfb7e4e88a90ed63aa9d22ddade3354bc5a6c56bc7db56832abe0f4",
	"corpus/depth1":   "c52559c28d134c424d330689d8c86677d3fefc2547373a6086938ff71e0460da",
	"corpus/depth2":   "c52559c28d134c424d330689d8c86677d3fefc2547373a6086938ff71e0460da",
	"fixtures/depth0": "6541eb13991cd5da984f0a6543df4eb28ab85f6ce0e3e22475f4b4b86323dae9",
	"fixtures/depth1": "9b0e5abd1e71df60607f166c1c615ee3a170d4e3d6191d9e40e6c35fe7f1461e",
	"fixtures/depth2": "9b0e5abd1e71df60607f166c1c615ee3a170d4e3d6191d9e40e6c35fe7f1461e",
	"tree256/depth0":  "e2db4040fbd86d733a0642ca085f9278181353d02f1313398df4e3db46a84327",
	"tree256/depth1":  "063f032da0da17a8f82871932903766cd55a4b1f25cbcd9e36574244de068f3d",
	"tree256/depth2":  "063f032da0da17a8f82871932903766cd55a4b1f25cbcd9e36574244de068f3d",
	"tree2048/depth1": "9a6c6a86292779352c494c69b4a19180a45bbbfd60cffbffa58858fa2e3a3a6e",
}

// goldenInput is one pinned input: the headers and defines the project is
// set up with, and the sources analyzed.
type goldenInput struct {
	headers []ofence.SourceFile
	defines []string
	srcs    []ofence.SourceFile
}

// project returns a fresh project with in's environment and no sources.
func (in goldenInput) project() *ofence.Project {
	p := ofence.NewProject()
	kernelhdr.Register(p)
	for _, h := range in.headers {
		p.AddHeader(h.Name, h.Src)
	}
	for _, d := range in.defines {
		p.Define(d, "1")
	}
	return p
}

func corpusInput() goldenInput {
	return goldenInput{srcs: corpus.Generate(corpus.DefaultConfig(42)).Sources()}
}

func fixturesInput() goldenInput {
	var in goldenInput
	for _, fx := range corpus.Fixtures() {
		in.srcs = append(in.srcs, ofence.SourceFile{Name: fx.Name, Src: fx.Source})
	}
	return in
}

// treeInput is a generated tree with half its config symbols defined, as
// treeProject sets it up.
func treeInput(files int) goldenInput {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(files, 1))
	var in goldenInput
	for _, h := range tr.Headers {
		in.headers = append(in.headers, ofence.SourceFile{Name: h.Name, Src: h.Src})
	}
	for i, c := range tr.Configs {
		if i%2 == 0 {
			in.defines = append(in.defines, c)
		}
	}
	for _, f := range tr.Files {
		in.srcs = append(in.srcs, ofence.SourceFile{Name: f.Name, Src: f.Src})
	}
	return in
}

func indentedHash(t *testing.T, res *ofence.Result) string {
	t.Helper()
	data, err := json.MarshalIndent(res.View(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(append(data, '\n'))
	return hex.EncodeToString(sum[:])
}

// checkGolden analyzes in at every depth and worker count given, through
// both schedules a caller can reach: sources handed to the analysis
// (AnalyzeSourcesCtx) and sources parsed up front (AddSources, then
// AnalyzeParallel). Every run must hash to the pinned value.
func checkGolden(t *testing.T, name string, in goldenInput, depths, workers []int) {
	for _, depth := range depths {
		key := fmt.Sprintf("%s/depth%d", name, depth)
		want := goldenJSON[key]
		for _, w := range workers {
			opts := ofence.DefaultOptions()
			opts.InterprocDepth = depth
			opts.Workers = w
			t.Run(fmt.Sprintf("%s/workers%d/pipelined", key, w), func(t *testing.T) {
				res, err := in.project().AnalyzeSourcesCtx(context.Background(), in.srcs, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := indentedHash(t, res); got != want {
					t.Errorf("-json sha256 = %s, pinned %s", got, want)
				}
			})
			t.Run(fmt.Sprintf("%s/workers%d/parsed", key, w), func(t *testing.T) {
				p := in.project()
				p.AddSources(in.srcs)
				res, err := p.AnalyzeParallel(context.Background(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := indentedHash(t, res); got != want {
					t.Errorf("-json sha256 = %s, pinned %s", got, want)
				}
			})
		}
	}
}

// TestGoldenJSON pins today's -json output over the default corpus, the
// §6.2 fixtures and generated kernel trees, at interprocedural depths 0–2
// and Workers 1 and 8.
func TestGoldenJSON(t *testing.T) {
	checkGolden(t, "corpus", corpusInput(), []int{0, 1, 2}, []int{1, 8})
	checkGolden(t, "fixtures", fixturesInput(), []int{0, 1, 2}, []int{1, 8})
	checkGolden(t, "tree256", treeInput(256), []int{0, 1, 2}, []int{1, 8})
	if testing.Short() {
		t.Skip("2,048-file tree skipped under -short")
	}
	checkGolden(t, "tree2048", treeInput(2048), []int{1}, []int{8})
}
