package ofence_test

import (
	"context"
	"testing"

	"ofence/internal/obs"
	"ofence/internal/ofence"
	"ofence/internal/sitegen"
)

// tracedTreeRun analyzes a small generated tree at InterprocDepth 1 under a
// tracer and returns the project, the result and the spans by name.
func tracedTreeRun(t *testing.T) (*ofence.Project, *ofence.Result, map[string][]*obs.Span) {
	t.Helper()
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(96, 5))
	p := treeProject(tr, false)
	opts := ofence.DefaultOptions()
	opts.InterprocDepth = 1
	tracer := obs.New()
	res, err := p.AnalyzeParallel(obs.WithTracer(context.Background(), tracer), opts)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string][]*obs.Span{}
	for _, sp := range tracer.Spans() {
		spans[sp.Name()] = append(spans[sp.Name()], sp)
	}
	for _, name := range []string{"callgraph", "semprop", "extract", "dedup"} {
		if len(spans[name]) != 1 {
			t.Fatalf("%d %q spans, want 1", len(spans[name]), name)
		}
	}
	return p, res, spans
}

// TestTimingExtractIsExtraction pins Result.Timing.Extract to the
// extraction phase: in interprocedural mode the front-end refresh, the call
// graph and the fixpoint run before it and must not be counted, so the
// field can never exceed the extract span that encloses the phase.
func TestTimingExtractIsExtraction(t *testing.T) {
	_, res, spans := tracedTreeRun(t)
	extract, _ := spans["extract"][0].Elapsed()
	if res.Timing.Extract <= 0 || res.Timing.Extract > extract {
		t.Errorf("Timing.Extract = %v, extract span = %v", res.Timing.Extract, extract)
	}
	for _, global := range []string{"callgraph", "semprop"} {
		if spans[global][0].StartTime().After(spans["extract"][0].StartTime()) {
			t.Errorf("%s span starts inside the extract phase", global)
		}
	}
}

// TestDedupSpan pins the dedup span: a child of analyze whose counters are
// the raw site count (every unit's sites, duplicates across inlining
// callers included) and the deduplicated count the result carries.
func TestDedupSpan(t *testing.T) {
	p, res, spans := tracedTreeRun(t)
	dedup := spans["dedup"][0]
	if dedup.Parent() == nil || dedup.Parent().Name() != "analyze" {
		t.Fatalf("dedup span parented under %v, want analyze", dedup.Parent())
	}
	raw := 0
	for _, fu := range p.Files() {
		raw += len(fu.Sites)
	}
	if raw == len(res.Sites) {
		t.Fatalf("tree has no duplicate sites (%d); the check is vacuous", raw)
	}
	counters := map[string]int64{}
	for _, c := range dedup.Counters() {
		counters[c.Name] = c.Value
	}
	if counters["sites_in"] != int64(raw) || counters["sites_out"] != int64(len(res.Sites)) {
		t.Errorf("dedup counters %v, want sites_in=%d sites_out=%d", counters, raw, len(res.Sites))
	}
}
