package semprop_test

import (
	"fmt"
	"testing"

	"ofence/internal/callgraph"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/kernelhdr"
	"ofence/internal/semprop"
	"ofence/internal/sitegen"
)

// diffInfer runs the legacy round-robin schedule and the SCC schedule over
// the same graph and asserts identical per-node kinds at several worker
// counts. Order-independence of the least fixpoint is the whole soundness
// argument for the SCC schedule; this is its regression net.
func diffInfer(t *testing.T, g *callgraph.Graph, opts semprop.Options) {
	t.Helper()
	seqOpts := opts
	seqOpts.Sequential = true
	seq := semprop.Infer(g, seqOpts)
	if !seq.Converged {
		t.Fatalf("sequential oracle did not converge in %d rounds", seq.Rounds)
	}
	for _, workers := range []int{1, 3, 8} {
		sccOpts := opts
		sccOpts.Sequential = false
		sccOpts.Workers = workers
		scc := semprop.Infer(g, sccOpts)
		if !scc.Converged {
			t.Fatalf("workers=%d: SCC schedule did not converge", workers)
		}
		if scc.Components == 0 || scc.Levels == 0 {
			t.Errorf("workers=%d: SCC schedule reported no components/levels", workers)
		}
		for _, n := range g.Nodes {
			if seq.Kind(n) != scc.Kind(n) {
				t.Errorf("workers=%d: %s/%s: sequential %v vs SCC %v",
					workers, n.File, n.Name(), seq.Kind(n), scc.Kind(n))
			}
		}
	}
}

// TestSCCScheduleEquivalence covers recursion shapes the condensation must
// get right: self-recursion, mutual recursion across files, a recursive
// pair wrapping a barrier, and diamond call patterns.
func TestSCCScheduleEquivalence(t *testing.T) {
	g := buildGraph(t, map[string]string{
		"a.c": `
void leaf(void) { smp_wmb(); }
void wrap1(void) { leaf(); }
void wrap2(void) { wrap1(); }
void rec(int n) { if (n) { smp_mb(); rec(n - 1); } }
void norec(int n) { if (n) rec(n - 1); }
`,
		"b.c": `
void ping(int n);
void pong(int n) { smp_rmb(); if (n) ping(n - 1); }
void ping(int n) { smp_rmb(); if (n) pong(n - 1); }
void diamond(int c) { if (c) wrap2(); else leaf(); }
void partial(int c) { if (c) leaf(); }
`,
	})
	diffInfer(t, g, semprop.Options{})
}

// TestSCCScheduleEquivalenceTree runs the differential over generated
// trees: deep caller-before-callee wrapper chains bottoming into a
// cross-subsystem core chain — the adversarial shape for the legacy
// schedule and the reason the SCC schedule exists.
func TestSCCScheduleEquivalenceTree(t *testing.T) {
	for _, seed := range []int64{1, 99} {
		tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(64, seed))
		var cgf []callgraph.File
		for _, f := range tr.Files {
			ast, _ := cparser.ParseSource(f.Name, f.Src, cpp.Options{Include: kernelhdr.Headers()})
			cgf = append(cgf, callgraph.File{Name: f.Name, AST: ast})
		}
		g := callgraph.Build(cgf)
		diffInfer(t, g, semprop.Options{})

		// The deep chains must actually be inferred end to end: every
		// subsystem chain head is a wrapper whose only path executes the
		// core chain's bottom barrier.
		inf := semprop.Infer(g, semprop.Options{})
		heads := 0
		for _, n := range g.Nodes {
			if len(n.Fn.Name) > 10 && n.Fn.Name[len(n.Fn.Name)-10:] == "_sync_0000" {
				heads++
				if inf.Kind(n) == 0 {
					t.Errorf("seed %d: chain head %s inferred as none", seed, n.Name())
				}
			}
		}
		if heads == 0 {
			t.Fatalf("seed %d: no chain heads found", seed)
		}
	}
}

// TestSCCScheduleRoundsBounded pins the point of the schedule: local round
// counts stay tiny even when the legacy schedule needs hundreds of global
// rounds over the same graph.
func TestSCCScheduleRoundsBounded(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(96, 5))
	var cgf []callgraph.File
	for _, f := range tr.Files {
		ast, _ := cparser.ParseSource(f.Name, f.Src, cpp.Options{Include: kernelhdr.Headers()})
		cgf = append(cgf, callgraph.File{Name: f.Name, AST: ast})
	}
	g := callgraph.Build(cgf)

	seq := semprop.Infer(g, semprop.Options{Sequential: true})
	scc := semprop.Infer(g, semprop.Options{})
	if seq.Rounds < 20 {
		t.Fatalf("tree no longer adversarial for the legacy schedule (%d rounds) — regenerate the spec", seq.Rounds)
	}
	if scc.Rounds > 4 {
		t.Errorf("SCC local rounds = %d, want <= 4 (acyclic components evaluate once)", scc.Rounds)
	}
	if msg := fmt.Sprintf("seq=%d scc=%d comps=%d levels=%d", seq.Rounds, scc.Rounds, scc.Components, scc.Levels); testing.Verbose() {
		t.Log(msg)
	}
}

// TestInferSummariesOverFacts is the incremental pipeline's path: per-file
// facts and summaries, computed once, feed BuildFacts and InferSummaries
// under several ExtraFull settings. Every run must match the Sequential
// oracle summarizing afresh over callgraph.Build — the summaries carry call
// names, never the options' catalog lookups.
func TestInferSummariesOverFacts(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(64, 13))
	// A wrapper around a name only ExtraFull declares a barrier, so the
	// option changes the answer.
	files := append(tr.Files, sitegen.TreeFile{Name: "extra.c", Src: "void custom_fence(void);\nvoid fence_wrap(void) { custom_fence(); }\n"})
	var cgf []callgraph.File
	var facts []*callgraph.Facts
	var sums []*semprop.Summary
	for _, f := range files {
		ast, _ := cparser.ParseSource(f.Name, f.Src, cpp.Options{Include: kernelhdr.Headers()})
		file := callgraph.File{Name: f.Name, AST: ast}
		cgf = append(cgf, file)
		fc := callgraph.FactsOf(file)
		facts = append(facts, fc)
		sums = append(sums, semprop.SummarizeFile(fc)...)
	}
	oracle := callgraph.Build(cgf)
	g := callgraph.BuildFacts(facts, 3)

	differs := false
	for _, extra := range [][]string{nil, {"custom_fence"}, nil} {
		want := semprop.Infer(oracle, semprop.Options{ExtraFull: extra, Sequential: true})
		got := semprop.InferSummaries(g, sums, semprop.Options{ExtraFull: extra, Workers: 3})
		for i, n := range g.Nodes {
			if got.Kind(n) != want.Kind(oracle.Nodes[i]) {
				t.Errorf("extra=%v: %s/%s: %v vs oracle %v", extra, n.File, n.Name(), got.Kind(n), want.Kind(oracle.Nodes[i]))
			}
		}
		if extra != nil {
			base := semprop.Infer(oracle, semprop.Options{Sequential: true})
			for _, n := range oracle.Nodes {
				differs = differs || base.Kind(n) != want.Kind(n)
			}
		}
	}
	if !differs {
		t.Error("ExtraFull changes no inferred function; the option check is vacuous")
	}
}
