package ofence_test

import (
	"context"
	"fmt"
	"testing"

	"ofence/internal/cpp"
	"ofence/internal/kernelhdr"
	"ofence/internal/obs"
	"ofence/internal/ofence"
	"ofence/internal/sitegen"
)

// TestMemoTreeMatchesUnmemoized analyzes a generated tree through the
// project's header memo — shared by the per-file goroutines of the depth-0
// pipeline and of refreshStale — and checks every file's preprocess
// fingerprint against an unmemoized run and the -json against the legacy
// frontend, at Workers 1 and 8.
func TestMemoTreeMatchesUnmemoized(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(96, 3))
	include := kernelhdr.Headers()
	for _, h := range tr.Headers {
		include[h.Name] = h.Src
	}
	defines := map[string]string{}
	for i, c := range tr.Configs {
		if i%2 == 0 {
			defines[c] = "1"
		}
	}
	srcs := make([]ofence.SourceFile, 0, len(tr.Files))
	want := map[string]string{}
	for _, f := range tr.Files {
		srcs = append(srcs, ofence.SourceFile{Name: f.Name, Src: f.Src})
		want[f.Name] = cpp.Preprocess(f.Name, f.Src, cpp.Options{Include: include, Defines: defines}).Fingerprint(f.Name)
	}
	project := func(legacy bool) *ofence.Project {
		p := ofence.NewProject()
		if legacy {
			p.UseLegacyFrontendForTest()
		}
		for name, src := range include {
			p.AddHeader(name, src)
		}
		for name, v := range defines {
			p.Define(name, v)
		}
		return p
	}
	for _, depth := range []int{0, 1} {
		opts := ofence.DefaultOptions()
		opts.InterprocDepth = depth
		opts.Workers = 1
		oracle, err := project(true).AnalyzeSourcesCtx(context.Background(), srcs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(oracle.Sites) == 0 || len(oracle.Pairings) == 0 {
			t.Fatalf("oracle run is degenerate: %d sites, %d pairings", len(oracle.Sites), len(oracle.Pairings))
		}
		wantJSON := viewJSON(t, oracle)
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("depth=%d workers=%d", depth, workers), func(t *testing.T) {
				opts.Workers = workers
				p := project(false)
				tracer := obs.New()
				res, err := p.AnalyzeSourcesCtx(obs.WithTracer(context.Background(), tracer), srcs, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := viewJSON(t, res); got != wantJSON {
					t.Fatal("-json through the memo differs from the legacy frontend's")
				}
				for name, h := range p.PreHashesForTest() {
					if h != want[name] {
						t.Fatalf("%s: fingerprint %s, unmemoized %s", name, h, want[name])
					}
				}
				replayed := spanCounter(tracer, "preprocess", "includes_replayed")
				expanded := spanCounter(tracer, "preprocess", "includes_expanded")
				if replayed < int64(len(srcs)) || expanded == 0 {
					t.Fatalf("%d includes replayed, %d expanded over %d files", replayed, expanded, len(srcs))
				}
			})
		}
	}
}

// TestMemoScope pins the memo's lifetime: clones share it, and a changed
// environment (AddHeader, Define) gets a fresh one.
func TestMemoScope(t *testing.T) {
	p := ofence.NewProject()
	kernelhdr.Register(p)
	m := p.MemoForTest()
	if m == nil || p.MemoForTest() != m {
		t.Fatal("memo not kept across snapshots of one environment")
	}
	q := p.Clone()
	if q.MemoForTest() != m {
		t.Fatal("clone does not share the memo")
	}
	q.Define("CONFIG_X", "1")
	if q.MemoForTest() == m {
		t.Fatal("Define kept the old memo")
	}
	if p.MemoForTest() != m {
		t.Fatal("a clone's Define replaced the original's memo")
	}
	p.AddHeader("x.h", "int x;\n")
	if p.MemoForTest() == m {
		t.Fatal("AddHeader kept the old memo")
	}
}
