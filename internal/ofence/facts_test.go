package ofence_test

import (
	"context"
	"testing"

	"ofence/internal/callgraph"
	"ofence/internal/obs"
	"ofence/internal/ofence"
)

// factsHeader and factsSources are the fixture of the edit-sequence
// differential. writer.c and reader.c never change; every edit lands in
// another file and changes what writer.c's calls bind to.
const factsHeader = `struct foo { int data; int flag; };
struct ops { void (*run)(void); };`

func factsSources() map[string]string {
	return map[string]string{
		"writer.c": `
#include "shared.h"
void publish_barrier(void);
void wrap(void);
void producer(struct foo *f) {
	f->data = 1;
	publish_barrier();
	f->flag = 1;
}
void producer2(struct foo *f) {
	f->data = 2;
	wrap();
	f->flag = 2;
}
void run_ops(struct ops *o, struct foo *f) {
	f->data = 3;
	o->run();
	f->flag = 3;
}
`,
		"reader.c": `
#include "shared.h"
void consumer(struct foo *f) {
	int ready = f->flag;
	smp_rmb();
	int d = f->data;
}
`,
		"barrier.c": `
int unrelated(int x) { return x + 1; }
`,
		"wrapper.c": `
void wrap(void) { smp_wmb(); }
`,
		"ops.c": `
#include "shared.h"
void impl_run(void) { smp_wmb(); }
`,
	}
}

var factsOrder = []string{"writer.c", "reader.c", "barrier.c", "wrapper.c", "ops.c"}

func factsProject(t *testing.T, srcs map[string]string) *ofence.Project {
	t.Helper()
	p := ofence.NewProject()
	p.AddHeader("shared.h", factsHeader)
	var batch []ofence.SourceFile
	for _, name := range factsOrder {
		batch = append(batch, ofence.SourceFile{Name: name, Src: srcs[name]})
	}
	for _, fu := range p.AddSources(batch) {
		if len(fu.Errs) > 0 {
			t.Fatalf("%s: parse errors: %v", fu.Name, fu.Errs)
		}
	}
	return p
}

// spanCounter sums one counter over every span of one name.
func spanCounter(tr *obs.Tracer, span, counter string) int64 {
	var n int64
	for _, sp := range tr.Spans() {
		if sp.Name() != span {
			continue
		}
		for _, c := range sp.Counters() {
			if c.Name == counter {
				n += c.Value
			}
		}
	}
	return n
}

// graphsEquivalent asserts that g (built from kept facts) is exactly oracle
// (callgraph.Build over the current ASTs): same nodes in the same order, same
// edges in the same order over the same call expressions, same callers and
// unresolved counts. It mirrors the callgraph package's own differential,
// through the exported fields.
func graphsEquivalent(t *testing.T, oracle, g *callgraph.Graph) {
	t.Helper()
	if len(oracle.Nodes) != len(g.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(oracle.Nodes), len(g.Nodes))
	}
	sameEdges := func(what string, a, b []*callgraph.Edge) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d edges", what, len(a), len(b))
		}
		for j := range a {
			if a[j].Caller.Fn != b[j].Caller.Fn || a[j].Callee.Fn != b[j].Callee.Fn ||
				a[j].Call != b[j].Call || a[j].Kind != b[j].Kind {
				t.Fatalf("%s: edge %d differs", what, j)
			}
		}
	}
	for i := range oracle.Nodes {
		a, b := oracle.Nodes[i], g.Nodes[i]
		if a.File != b.File || a.Fn != b.Fn || a.Static != b.Static {
			t.Fatalf("node %d differs: %s/%s vs %s/%s", i, a.File, a.Name(), b.File, b.Name())
		}
		if a.UnresolvedCalls != b.UnresolvedCalls {
			t.Errorf("node %s: unresolved %d vs %d", a.Name(), a.UnresolvedCalls, b.UnresolvedCalls)
		}
		sameEdges(a.Name()+" calls", a.Calls, b.Calls)
		sameEdges(a.Name()+" callers", a.CalledBy, b.CalledBy)
	}
}

// edgeTo reports whether the function caller (in writer.c) has an edge to a
// function named callee, and of which kind.
func edgeTo(g *callgraph.Graph, caller, callee string) (callgraph.EdgeKind, bool) {
	for _, n := range g.Nodes {
		if n.File != "writer.c" || n.Name() != caller {
			continue
		}
		for _, e := range n.Calls {
			if e.Callee.Name() == callee {
				return e.Kind, true
			}
		}
	}
	return 0, false
}

// TestEditSequenceFactsDifferential applies a sequence of one-file edits
// that each change what an unchanged file's calls resolve to, and after
// every step checks the three correctness bars of the per-file facts: the
// graph built from kept facts equals callgraph.Build over the current ASTs,
// the inference over kept summaries equals the Sequential oracle, and the
// warm -json equals a cold analysis. Facts must hold names and be resolved
// at build time; facts that had bound writer.c's calls when writer.c was
// summarized would fail steps (a), (b) and (d).
func TestEditSequenceFactsDifferential(t *testing.T) {
	srcs := factsSources()
	opts := ofence.DefaultOptions()
	opts.InterprocDepth = 1
	opts.Workers = 3

	p := factsProject(t, srcs)
	tr := obs.New()
	if _, err := p.AnalyzeParallel(obs.WithTracer(context.Background(), tr), opts); err != nil {
		t.Fatal(err)
	}
	if got := spanCounter(tr, "callgraph", "files_summarized"); got != int64(len(factsOrder)) {
		t.Errorf("cold run: files_summarized = %d, want %d", got, len(factsOrder))
	}

	steps := []struct {
		name, file, src string
		check           func(t *testing.T, g *callgraph.Graph)
	}{
		{"add an external definition an unchanged file calls", "barrier.c", `
int unrelated(int x) { return x + 1; }
void publish_barrier(void) { smp_wmb(); }
`, func(t *testing.T, g *callgraph.Graph) {
			if k, ok := edgeTo(g, "producer", "publish_barrier"); !ok || k != callgraph.Direct {
				t.Error("producer's call did not bind to the new publish_barrier")
			}
		}},
		{"make a called function static", "wrapper.c", `
static void wrap(void) { smp_wmb(); }
`, func(t *testing.T, g *callgraph.Graph) {
			if _, ok := edgeTo(g, "producer2", "wrap"); ok {
				t.Error("producer2 still binds to wrap after it became static in another file")
			}
		}},
		{"add a function-pointer initializer in another file", "ops.c", `
#include "shared.h"
void impl_run(void) { smp_wmb(); }
struct ops my_ops = { impl_run };
`, func(t *testing.T, g *callgraph.Graph) {
			if k, ok := edgeTo(g, "run_ops", "impl_run"); !ok || k != callgraph.Pointer {
				t.Error("run_ops' o->run() did not resolve to impl_run")
			}
		}},
		{"delete a function", "barrier.c", `
int unrelated(int x) { return x + 1; }
`, func(t *testing.T, g *callgraph.Graph) {
			if _, ok := edgeTo(g, "producer", "publish_barrier"); ok {
				t.Error("producer still binds to the deleted publish_barrier")
			}
		}},
	}
	for _, st := range steps {
		t.Run(st.name, func(t *testing.T) {
			srcs[st.file] = st.src
			if p.ReplaceSource(st.file, st.src) == nil {
				t.Fatalf("%s is not in the project", st.file)
			}
			tr := obs.New()
			warm, err := p.AnalyzeParallel(obs.WithTracer(context.Background(), tr), opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := spanCounter(tr, "callgraph", "files_summarized"); got != 1 {
				t.Errorf("files_summarized = %d, want 1 (only the edited file)", got)
			}
			if got := spanCounter(tr, "semprop", "fns_summarized"); got < 1 {
				t.Errorf("fns_summarized = %d, want the edited file's functions", got)
			}

			g, oracle, inf, oracleInf := p.GlobalPhasesForTest(opts.Access.ExtraBarrierSemantics)
			graphsEquivalent(t, oracle, g)
			st.check(t, g)
			for i, n := range g.Nodes {
				if inf.Kind(n) != oracleInf.Kind(oracle.Nodes[i]) {
					t.Errorf("%s/%s: kind %v, Sequential oracle %v",
						n.File, n.Name(), inf.Kind(n), oracleInf.Kind(oracle.Nodes[i]))
				}
			}

			cold := factsProject(t, srcs).Analyze(opts)
			if viewJSON(t, warm) != viewJSON(t, cold) {
				t.Error("warm -json differs from a cold analysis of the same sources")
			}
		})
	}
}

// TestExtraBarrierSemanticsChangeWarm changes Access.ExtraBarrierSemantics
// between two warm interprocedural runs. The kept summaries hold call names
// only, so the second run must match a cold run under the new option: a
// summary that had baked in the first run's catalog lookups would not.
func TestExtraBarrierSemanticsChangeWarm(t *testing.T) {
	srcs := factsSources()
	srcs["barrier.c"] = `
void custom_fence(void);
void publish_barrier(void) { custom_fence(); }
`
	opts := ofence.DefaultOptions()
	opts.InterprocDepth = 1

	p := factsProject(t, srcs)
	first := p.Analyze(opts)
	if !viewEqual(t, first, factsProject(t, srcs).Analyze(opts)) {
		t.Fatal("first warm run differs from cold")
	}

	changed := opts
	changed.Access.ExtraBarrierSemantics = []string{"custom_fence"}
	second := p.Analyze(changed)
	if !viewEqual(t, second, factsProject(t, srcs).Analyze(changed)) {
		t.Error("warm -json after the option change differs from a cold run under the new option")
	}
	if inferred(first, "publish_barrier") || !inferred(second, "publish_barrier") {
		t.Errorf("publish_barrier inferred: %t before, %t after the option change; want false, true",
			inferred(first, "publish_barrier"), inferred(second, "publish_barrier"))
	}

	// And back: the first option set must reproduce the first result.
	if !viewEqual(t, p.Analyze(opts), first) {
		t.Error("restoring the option does not restore the first result")
	}
}

func viewEqual(t *testing.T, a, b *ofence.Result) bool {
	t.Helper()
	return viewJSON(t, a) == viewJSON(t, b)
}

func inferred(res *ofence.Result, name string) bool {
	for _, f := range res.Inferred {
		if f.Name == name {
			return true
		}
	}
	return false
}

// TestReleaseASTsDropsFacts pins that the per-file facts never pin a parse
// tree: a depth-1 ReleaseASTs run drops the facts with the AST, and a later
// run that grafts a fresh AST onto an unchanged unit recomputes them from
// that tree. Every run's -json equals a cold run.
func TestReleaseASTsDropsFacts(t *testing.T) {
	srcs := factsSources()
	opts := ofence.DefaultOptions()
	opts.InterprocDepth = 1
	cold := viewJSON(t, factsProject(t, srcs).Analyze(opts))

	p := factsProject(t, srcs)
	release := opts
	release.ReleaseASTs = true
	for run := 0; run < 2; run++ {
		if got := viewJSON(t, p.Analyze(release)); got != cold {
			t.Fatalf("ReleaseASTs run %d: -json differs from a cold run", run)
		}
		if pinned := p.FactsPinningForTest(); len(pinned) > 0 {
			t.Fatalf("ReleaseASTs run %d: units keep facts without their AST: %v", run, pinned)
		}
	}

	tr := obs.New()
	res, err := p.AnalyzeParallel(obs.WithTracer(context.Background(), tr), opts)
	if err != nil {
		t.Fatal(err)
	}
	if viewJSON(t, res) != cold {
		t.Error("run after ReleaseASTs: -json differs from a cold run")
	}
	if got := spanCounter(tr, "callgraph", "files_summarized"); got != int64(len(factsOrder)) {
		t.Errorf("run after ReleaseASTs: files_summarized = %d, want %d (every grafted unit)", got, len(factsOrder))
	}
	if pinned := p.FactsPinningForTest(); len(pinned) > 0 {
		t.Errorf("grafted units keep facts of a dropped tree: %v", pinned)
	}
	g, oracle, inf, oracleInf := p.GlobalPhasesForTest(nil)
	graphsEquivalent(t, oracle, g)
	for i, n := range g.Nodes {
		if inf.Kind(n) != oracleInf.Kind(oracle.Nodes[i]) {
			t.Errorf("%s: kind %v, oracle %v", n.Name(), inf.Kind(n), oracleInf.Kind(oracle.Nodes[i]))
		}
	}
}
