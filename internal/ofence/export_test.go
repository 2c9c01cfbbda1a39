package ofence

import (
	"ofence/internal/callgraph"
	"ofence/internal/cast"
	"ofence/internal/cpp"
	"ofence/internal/semprop"
)

// UseLegacyFrontendForTest routes the project's frontend through the
// pre-overhaul oracle: the rune-based lexer, the arena-free parser, and no
// identifier canonicalization. Differential tests and benchmarks compare
// production runs against projects configured this way.
func (p *Project) UseLegacyFrontendForTest() { p.legacyFrontend = true }

// UseSequentialGlobalForTest routes the project's interprocedural global
// phases through the sequential pre-sharding oracle: callgraph.Build, the
// round-robin semprop fixpoint, the per-file closure BFS, unsharded site
// dedup and the sequential ranking census. The tree-scale overhaul's
// differential tests and benchmarks compare production runs against
// projects configured this way.
func (p *Project) UseSequentialGlobalForTest() { p.seqGlobal = true }

// FrontendMetersForTest sums the per-file frontend meters (preprocessed
// token count, AST arena bytes) across the project's artifact records.
func (p *Project) FrontendMetersForTest() (tokens, arenaBytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fu := range p.files {
		if fu.art != nil {
			tokens += int64(fu.art.tokens)
			arenaBytes += fu.art.arenaBytes
		}
	}
	return
}

// GlobalPhasesForTest rebuilds the interprocedural global phases twice from
// the project's current units: the production way (callgraph.BuildFacts
// over the units' kept facts, semprop.InferSummaries over their kept
// summaries) and the oracle way (callgraph.Build over the current ASTs, the
// Sequential fixpoint summarizing every function afresh). Call it after an
// interprocedural Analyze without ReleaseASTs, which leaves every unit with
// an AST and facts.
func (p *Project) GlobalPhasesForTest(extraFull []string) (g, oracle *callgraph.Graph, inf, oracleInf *semprop.Inference) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var facts []*callgraph.Facts
	var sums []*semprop.Summary
	var files []callgraph.File
	for _, fu := range p.files {
		facts = append(facts, fu.art.facts)
		sums = append(sums, fu.art.sums...)
		files = append(files, callgraph.File{Name: fu.Name, AST: fu.AST})
	}
	g = callgraph.BuildFacts(facts, 3)
	oracle = callgraph.Build(files)
	inf = semprop.InferSummaries(g, sums, semprop.Options{ExtraFull: extraFull, Workers: 3})
	oracleInf = semprop.Infer(oracle, semprop.Options{ExtraFull: extraFull, Sequential: true})
	return g, oracle, inf, oracleInf
}

// FactsPinningForTest names the units whose interprocedural facts or
// summaries outlive or predate their AST: facts kept without an AST, or
// facts whose function definitions are not the current AST's. Either would
// keep a parse tree alive that the unit no longer uses.
func (p *Project) FactsPinningForTest() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for _, fu := range p.files {
		art := fu.art
		if art == nil || (art.facts == nil && art.sums == nil) {
			continue
		}
		if art.ast == nil || art.facts == nil {
			out = append(out, fu.Name)
			continue
		}
		current := map[*cast.FuncDecl]bool{}
		for _, fn := range art.ast.Functions() {
			current[fn] = true
		}
		for _, ff := range art.facts.Funcs {
			if !current[ff.Fn] {
				out = append(out, fu.Name)
				break
			}
		}
	}
	return out
}

// PreHashesForTest returns every unit's preprocess fingerprint by file
// name.
func (p *Project) PreHashesForTest() map[string]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]string, len(p.files))
	for _, fu := range p.files {
		if fu.art != nil {
			out[fu.Name] = fu.art.preHash
		}
	}
	return out
}

// MemoForTest returns the header memo of the project's current
// environment.
func (p *Project) MemoForTest() *cpp.Memo { return p.envSnapshot().memo }
