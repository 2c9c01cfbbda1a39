package callgraph

import (
	"fmt"
	"testing"

	"ofence/internal/sitegen"
)

// graphsEquivalent asserts g2 (built from facts) is exactly g1 (Build over
// the ASTs): same node order, same edges in the same order over the same
// call expressions, same pointer-target tables. Both graphs must be built
// over the same parsed []File so AST pointers are comparable.
func graphsEquivalent(t *testing.T, g1, g2 *Graph) {
	t.Helper()
	if len(g1.Nodes) != len(g2.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(g1.Nodes), len(g2.Nodes))
	}
	for i := range g1.Nodes {
		a, b := g1.Nodes[i], g2.Nodes[i]
		if a.File != b.File || a.Fn != b.Fn || a.Static != b.Static {
			t.Fatalf("node %d differs: %s/%s vs %s/%s", i, a.File, a.Name(), b.File, b.Name())
		}
		if a.UnresolvedCalls != b.UnresolvedCalls {
			t.Errorf("node %s: unresolved %d vs %d", a.Name(), a.UnresolvedCalls, b.UnresolvedCalls)
		}
		if len(a.Calls) != len(b.Calls) {
			t.Fatalf("node %s: %d vs %d calls", a.Name(), len(a.Calls), len(b.Calls))
		}
		for j := range a.Calls {
			ea, eb := a.Calls[j], b.Calls[j]
			if ea.Callee.Fn != eb.Callee.Fn || ea.Call != eb.Call || ea.Kind != eb.Kind {
				t.Fatalf("node %s call %d differs", a.Name(), j)
			}
		}
		if len(a.CalledBy) != len(b.CalledBy) {
			t.Fatalf("node %s: %d vs %d callers", a.Name(), len(a.CalledBy), len(b.CalledBy))
		}
		for j := range a.CalledBy {
			ea, eb := a.CalledBy[j], b.CalledBy[j]
			if ea.Caller.Fn != eb.Caller.Fn || ea.Call != eb.Call || ea.Kind != eb.Kind {
				t.Fatalf("node %s caller %d differs", a.Name(), j)
			}
		}
	}
	if len(g1.ptrTargets) != len(g2.ptrTargets) {
		t.Fatalf("ptrTargets sizes differ: %d vs %d", len(g1.ptrTargets), len(g2.ptrTargets))
	}
	for slot, la := range g1.ptrTargets {
		lb := g2.ptrTargets[slot]
		if len(la) != len(lb) {
			t.Fatalf("ptrTargets[%s]: %d vs %d", slot, len(la), len(lb))
		}
		for i := range la {
			if la[i].Fn != lb[i].Fn {
				t.Fatalf("ptrTargets[%s][%d] differs", slot, i)
			}
		}
	}
	if len(g1.initTargets) != len(g2.initTargets) {
		t.Fatalf("initTargets sizes differ: %d vs %d", len(g1.initTargets), len(g2.initTargets))
	}
	for i := range g1.initTargets {
		if g1.initTargets[i].Fn != g2.initTargets[i].Fn {
			t.Fatalf("initTargets[%d] differs", i)
		}
	}
}

// factsBuild is the incremental pipeline's path: every file's facts
// gathered on their own, then resolved together by BuildFacts.
func factsBuild(files []File) *Graph {
	facts := make([]*Facts, len(files))
	for i, f := range files {
		facts[i] = FactsOf(f)
	}
	return BuildFacts(facts)
}

// TestBuildParallelEquivalence covers the resolution corner cases: statics
// shadowing externals, function-pointer slots, initializer-list fallbacks,
// unresolved calls — through BuildParallel at several worker counts and
// through per-file facts, against Build.
func TestBuildParallelEquivalence(t *testing.T) {
	files := []File{
		parse(t, "a.c", `
static void helper(void) { }
void caller(void) { helper(); ext(); }
void shared(void) { caller(); }
`),
		parse(t, "b.c", `
static void helper(void) { shared(); }
void user(void) { helper(); unknown_fn(); }
void (*fp)(void) = helper;
void indirect(void) { fp(); }
`),
		parse(t, "c.c", `
struct ops { void (*run)(void); void (*stop)(void); };
void impl_run(void) { }
void impl_stop(void) { }
struct ops table = { impl_run, impl_stop };
void dispatch(struct ops *o) { o->run(); o->other(); }
void cond_assign(int x) { void (*h)(void) = x ? impl_run : impl_stop; h(); }
`),
		{Name: "broken.c", AST: nil},
	}
	seq := Build(files)
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			graphsEquivalent(t, seq, BuildParallel(files, workers))
			graphsEquivalent(t, seq, factsBuild(files))
		})
	}
}

// TestFactsResolveAtBuildTime keeps one file's facts while the files it
// calls into change — a definition appears, turns static, disappears — and
// rebuilds from the kept facts each time. Facts hold names, so every
// rebuild must equal Build over the current files.
func TestFactsResolveAtBuildTime(t *testing.T) {
	caller := parse(t, "caller.c", `
void user(void) { helper(); fp(); }
`)
	kept := FactsOf(caller)
	for i, src := range []string{
		`int unrelated(void) { return 0; }`,
		`void helper(void) { } void (*fp)(void) = helper;`,
		`static void helper(void) { } void (*fp)(void) = helper;`,
		`void other(void) { }`,
	} {
		callee := parse(t, "callee.c", src)
		want := Build([]File{caller, callee})
		got := BuildFacts([]*Facts{kept, FactsOf(callee)})
		t.Run(fmt.Sprint(i), func(t *testing.T) { graphsEquivalent(t, want, got) })
	}
}

// TestBuildParallelEquivalenceTree runs the differential over a generated
// source tree — cross-file chains, helpers, unresolved noise calls — which
// is the corpus shape the facts-based builder exists for.
func TestBuildParallelEquivalenceTree(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(48, 3))
	var files []File
	for _, f := range tr.Files {
		files = append(files, parse(t, f.Name, f.Src))
	}
	seq := Build(files)
	graphsEquivalent(t, seq, BuildParallel(files, 8))
	par := factsBuild(files)
	graphsEquivalent(t, seq, par)

	// The call names the facts carry must yield the same dependency map as
	// Build's.
	sd, pd := seq.FileDeps(), par.FileDeps()
	if len(sd) != len(pd) {
		t.Fatalf("FileDeps sizes differ: %d vs %d", len(sd), len(pd))
	}
	for f, la := range sd {
		lb := pd[f]
		if len(la) != len(lb) {
			t.Fatalf("FileDeps[%s]: %v vs %v", f, la, lb)
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("FileDeps[%s][%d]: %s vs %s", f, i, la[i], lb[i])
			}
		}
	}
}
