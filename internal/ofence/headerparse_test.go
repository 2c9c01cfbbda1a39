package ofence_test

import (
	"context"
	"fmt"
	"testing"

	"ofence/internal/cast"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/kernelhdr"
	"ofence/internal/obs"
	"ofence/internal/ofence"
	"ofence/internal/sitegen"
)

// treeHalfInput is a generated tree with the config symbols of one half
// (i%2 == half) defined.
func treeHalfInput(files, half int) goldenInput {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(files, 1))
	var in goldenInput
	for _, h := range tr.Headers {
		in.headers = append(in.headers, ofence.SourceFile{Name: h.Name, Src: h.Src})
	}
	for i, c := range tr.Configs {
		if i%2 == half {
			in.defines = append(in.defines, c)
		}
	}
	for _, f := range tr.Files {
		in.srcs = append(in.srcs, ofence.SourceFile{Name: f.Name, Src: f.Src})
	}
	return in
}

// cppOptions are the preprocessor options equivalent to in.project()'s
// environment, without a memo.
func (in goldenInput) cppOptions() cpp.Options {
	opts := cpp.Options{Include: kernelhdr.Headers(), Defines: map[string]string{}}
	for _, h := range in.headers {
		opts.Include[h.Name] = h.Src
	}
	for _, d := range in.defines {
		opts.Defines[d] = "1"
	}
	return opts
}

// checkUnitsFresh fails t unless every unit of p holds the AST and errors a
// fresh, memo-free parse of its source gives: every declaration prints the
// same at the same position, and the errors match in order.
func checkUnitsFresh(t *testing.T, p *ofence.Project, in goldenInput) {
	t.Helper()
	opts := in.cppOptions()
	for i, fu := range p.Files() {
		want, wantErrs := cparser.ParseSource(fu.Name, in.srcs[i].Src, opts)
		if fu.AST == nil || len(fu.AST.Decls) != len(want.Decls) {
			t.Fatalf("%s: AST %v, fresh parse has %d decls", fu.Name, fu.AST != nil, len(want.Decls))
		}
		for j, d := range want.Decls {
			if got := fu.AST.Decls[j]; cast.Print(got) != cast.Print(d) || got.Pos() != d.Pos() {
				t.Fatalf("%s: decl %d at %s differs from the fresh parse's at %s:\n%s\nfresh:\n%s",
					fu.Name, j, got.Pos(), d.Pos(), cast.Print(got), cast.Print(d))
			}
		}
		if len(fu.Errs) != len(wantErrs) {
			t.Fatalf("%s: %d errors, fresh parse %d", fu.Name, len(fu.Errs), len(wantErrs))
		}
		for j := range wantErrs {
			if fu.Errs[j].Error() != wantErrs[j].Error() {
				t.Fatalf("%s: error %d %q, fresh %q", fu.Name, j, fu.Errs[j], wantErrs[j])
			}
		}
	}
}

// TestHeaderParseMemoMatchesFresh analyzes the default corpus, the §6.2
// fixtures and a generated tree under both halves of its config symbols
// with eight workers sharing the project's header-parse memo, and holds
// every unit's AST and errors to a fresh parse.
func TestHeaderParseMemoMatchesFresh(t *testing.T) {
	inputs := map[string]goldenInput{
		"corpus":        corpusInput(),
		"fixtures":      fixturesInput(),
		"tree256/half0": treeHalfInput(256, 0),
		"tree256/half1": treeHalfInput(256, 1),
	}
	for name, in := range inputs {
		t.Run(name, func(t *testing.T) {
			opts := ofence.DefaultOptions()
			opts.InterprocDepth = 1
			opts.Workers = 8
			tracer := obs.New()
			p := in.project()
			if _, err := p.AnalyzeSourcesCtx(obs.WithTracer(context.Background(), tracer), in.srcs, opts); err != nil {
				t.Fatal(err)
			}
			checkUnitsFresh(t, p, in)
			shared, decls := spanCounter(tracer, "parse", "decls_shared"), spanCounter(tracer, "parse", "decls")
			if name != "fixtures" && shared == 0 {
				t.Fatalf("no declaration shared out of %d", decls)
			}
		})
	}
}

// TestHeaderParseMemoShare pins the share a cold tree run takes from the
// memo: at Workers=1, every file after the first of each subsystem replays
// its headers' declarations, so at 256 files (16 per subsystem) about 90 %
// of all declarations are shared.
func TestHeaderParseMemoShare(t *testing.T) {
	in := treeInput(256)
	opts := ofence.DefaultOptions()
	opts.InterprocDepth = 1
	opts.Workers = 1
	tracer := obs.New()
	if _, err := in.project().AnalyzeSourcesCtx(obs.WithTracer(context.Background(), tracer), in.srcs, opts); err != nil {
		t.Fatal(err)
	}
	shared, decls := spanCounter(tracer, "parse", "decls_shared"), spanCounter(tracer, "parse", "decls")
	if shared*100 < decls*85 {
		t.Fatalf("%d of %d declarations shared, want at least 85%%", shared, decls)
	}
	if tok, all := spanCounter(tracer, "parse", "tokens_shared"), spanCounter(tracer, "parse", "tokens"); tok == 0 || tok > all {
		t.Fatalf("tokens_shared = %d of %d", tok, all)
	}
}

// TestHeaderParseMemoReleaseASTs: a ReleaseASTs run, whose per-file trees
// are built without arenas and dropped after extraction, shares the memo's
// declarations and still produces the pinned -json; the shared
// declarations are not charged to any file's arena.
func TestHeaderParseMemoReleaseASTs(t *testing.T) {
	in := treeInput(256)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			opts := ofence.DefaultOptions()
			opts.Workers = workers
			opts.ReleaseASTs = true
			tracer := obs.New()
			p := in.project()
			res, err := p.AnalyzeSourcesCtx(obs.WithTracer(context.Background(), tracer), in.srcs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := indentedHash(t, res), goldenJSON["tree256/depth0"]; got != want {
				t.Fatalf("-json sha256 = %s, pinned %s", got, want)
			}
			for _, fu := range p.Files() {
				if fu.AST != nil {
					t.Fatalf("%s: AST kept after a ReleaseASTs run", fu.Name)
				}
			}
			if _, arena := p.FrontendMetersForTest(); arena != 0 {
				t.Fatalf("arena bytes = %d, want 0: the per-file trees have no arena and the shared declarations belong to the memo", arena)
			}
			if spanCounter(tracer, "parse", "decls_shared") == 0 {
				t.Fatal("ReleaseASTs run shared no declaration")
			}
		})
	}
}

// TestHeaderParseMemoScope pins the header-parse memo's lifetime, which is
// the header memo's: clones share it, and a changed environment
// (AddHeader, Define) gets a fresh one.
func TestHeaderParseMemoScope(t *testing.T) {
	p := ofence.NewProject()
	kernelhdr.Register(p)
	m := p.ParsesForTest()
	if m == nil || p.ParsesForTest() != m {
		t.Fatal("memo not kept across snapshots of one environment")
	}
	q := p.Clone()
	if q.ParsesForTest() != m {
		t.Fatal("clone does not share the memo")
	}
	q.Define("CONFIG_X", "1")
	if q.ParsesForTest() == m {
		t.Fatal("Define kept the old memo")
	}
	if p.ParsesForTest() != m {
		t.Fatal("a clone's Define replaced the original's memo")
	}
	p.AddHeader("x.h", "int x;\n")
	if p.ParsesForTest() == m {
		t.Fatal("AddHeader kept the old memo")
	}
}
