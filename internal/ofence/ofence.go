// Package ofence implements the paper's contribution: pairing memory
// barriers by matching the shared objects accessed around them (Algorithm 1)
// and checking the paired code for ordering-constraint deviations (§5).
//
// The entry point is Project: add C sources, then Analyze. Analysis is
// file-parallel like the original tool. Results carry the pairings, the
// findings (misplaced accesses, wrong barrier types, repeated reads,
// unneeded barriers, missing READ_ONCE/WRITE_ONCE annotations), and
// statistics used by the evaluation harness.
package ofence

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ofence/internal/access"
	"ofence/internal/callgraph"
	"ofence/internal/cast"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/ctoken"
	"ofence/internal/ctypes"
	"ofence/internal/obs"
	"ofence/internal/rescache"
	"ofence/internal/semprop"
)

// Options configures the analysis.
type Options struct {
	// Access holds the exploration windows and inlining depth.
	Access access.Options
	// MinSharedObjects is the pairing threshold (paper: 2).
	MinSharedObjects int
	// Workers bounds file-level parallelism; 0 means GOMAXPROCS.
	Workers int
	// GenericStructs lists struct tags too generic to identify code (e.g.
	// the kernel's list_head); objects of these types never participate in
	// pairing. The paper reports such types as its main source of incorrect
	// pairings (§6.4).
	GenericStructs []string
	// CheckOnce enables the §7 READ_ONCE/WRITE_ONCE extension.
	CheckOnce bool
	// InterprocDepth enables interprocedural mode: a cross-file call graph
	// (internal/callgraph) plus fixpoint barrier-semantics inference
	// (internal/semprop), with exploration allowed to splice callee bodies
	// across file boundaries up to this depth. 0 — the default — preserves
	// the paper's one-level same-file behavior byte for byte.
	InterprocDepth int
	// MinConfidence gates findings by the ranking pass's score
	// (internal/rank): findings scoring below it are dropped from
	// Result.Findings. 0 — the default — disables the gate; every finding
	// is still scored. rank.DefaultThreshold is the tuned operating point
	// recorded in BENCH_confidence.json.
	MinConfidence float64
	// ReleaseASTs bounds AST residency on tree-scale runs: the per-file
	// pipeline bypasses the preprocess/parse stage caches and drops each
	// file's AST as soon as its extraction is done, so at InterprocDepth 0
	// the number of live ASTs never exceeds Workers. At interprocedural
	// depth every AST must be live at once for the call-graph phase, so
	// there the win is the resident project afterwards (a warm server
	// retains no parse trees), not the cold peak. Trees are parsed without
	// the AST arena in this mode — slab-batched nodes would stay pinned by
	// the barrier sites' node pointers, defeating the drop. The trade is
	// CPU for RSS — a later re-extraction must re-run the front-end. Excluded from
	// Fingerprint (like Workers, it changes scheduling and residency, never
	// results).
	ReleaseASTs bool
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{
		Access:           access.Defaults(),
		MinSharedObjects: 2,
		GenericStructs:   []string{"list_head", "hlist_head", "hlist_node", "rb_node", "rb_root"},
		CheckOnce:        true,
	}
}

// FileUnit is one analyzed translation unit. Name/AST/Table/Sites/Errs are
// read-only mirrors of the unit's current artifact record, refreshed by the
// project whenever a stage recomputes.
type FileUnit struct {
	Name  string
	AST   *cast.File
	Table *ctypes.Table
	Sites []*access.Site
	Errs  []error

	// src is the raw source, kept so the front-end can re-run when the
	// macro environment changes (Define/AddHeader dirties every file).
	src string
	// art is the immutable per-stage artifact record (see incremental.go);
	// replaced wholesale on recompute, never mutated, so clones sharing the
	// old record are undisturbed.
	art *artifacts
	// envStale marks that headers/defines changed after art was built; the
	// next Analyze re-runs the front-end to re-key the file.
	envStale bool
}

// Project is a set of files analyzed together. Pairing is global; the
// per-file pipeline (preprocess → parse → cfg → extract) is incremental:
// every stage output is an immutable artifact keyed by the content hash of
// its inputs in a cache shared with clones (see incremental.go), so
// re-analyzing after ReplaceSource re-runs per-file stages only for the
// changed file and replays the cheap project-wide phases over cached sites
// (the paper's incremental mode, §6.1).
//
// Concurrency: every method is safe to call concurrently, and Analyze calls
// on the SAME project are serialized internally (they swap per-unit
// artifact pointers); to overlap analyses of one file set, give each
// goroutine its own Clone — clones share the stage caches, so work done by
// one is reused by all.
type Project struct {
	mu      sync.Mutex
	files   []*FileUnit
	headers map[string]string
	defines map[string]string
	// envHash caches the content hash of headers+defines; "" means
	// recompute (AddHeader/Define reset it).
	envHash string
	// memo and parses are the header expansion and header parse memos of
	// the environment hashed memoEnv; new ones replace them when the
	// environment changes. Shared with clones.
	memo    *cpp.Memo
	parses  *cparser.HeaderMemo
	memoEnv string
	// stages holds the content-addressed per-file artifact caches, shared
	// with clones so equal work is never redone.
	stages *rescache.Stages
	// syms is the project-wide identifier table: the zero-copy tokenizer
	// interns every identifier spelling through it, and extraction
	// canonicalizes Object strings against it, so equal names across files
	// share one backing string. Shared with clones (it only ever grows).
	syms *ctoken.SymTab
	// legacyFrontend routes preprocessing through the pre-interning lexer
	// and parsing through the arena-free parser. The frontend overhaul's
	// differential tests and benchmarks use it as the oracle; it is never
	// set in production paths.
	legacyFrontend bool
	// seqGlobal routes the interprocedural global phases through the
	// reference implementations (callgraph.Build over the ASTs, round-robin
	// semprop, per-file closure BFS). The tree-scale overhaul's
	// differential tests and benchmarks use it as the oracle; it is never
	// set in production paths.
	seqGlobal bool
	// runMu serializes Analyze calls on this project: runs swap the
	// per-unit artifact records, which concurrent runs would race on.
	runMu sync.Mutex
}

// NewProject returns an empty project.
func NewProject() *Project {
	return &Project{
		headers: map[string]string{},
		defines: map[string]string{},
		stages:  rescache.NewStages(0),
		syms:    ctoken.NewSymTab(),
	}
}

// AddHeader registers an include-resolvable header shared by sources. Every
// existing file is marked stale: header text can reach any translation unit
// through #include, so the next Analyze re-keys them all (files whose
// preprocessed content is unchanged keep their cached artifacts).
func (p *Project) AddHeader(path, src string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.headers[path] = src
	p.markEnvChangedLocked()
}

// Define seeds a preprocessor symbol (kernel config) for all sources. Like
// AddHeader, it conservatively dirties every file.
func (p *Project) Define(name, value string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.defines[name] = value
	p.markEnvChangedLocked()
}

// markEnvChangedLocked invalidates the cached environment hash and marks
// every unit for a front-end refresh. Callers hold p.mu.
func (p *Project) markEnvChangedLocked() {
	p.envHash = ""
	for _, fu := range p.files {
		fu.envStale = true
	}
}

// AddSource parses one C file into the project. Parse errors are recorded on
// the file unit, not fatal (Smatch-style resilience).
func (p *Project) AddSource(name, src string) *FileUnit {
	env := p.envSnapshot()
	art := p.frontend(context.Background(), name, src, env, true)
	fu := &FileUnit{Name: name, AST: art.ast, Errs: art.errs, src: src, art: art}
	p.mu.Lock()
	p.files = append(p.files, fu)
	p.mu.Unlock()
	return fu
}

// SourceFile is one named C source for batch addition.
type SourceFile struct {
	Name string
	Src  string
}

// AddSources parses a batch of files into the project, fanning the parses
// out over a worker pool sized by GOMAXPROCS. The units are appended in the
// order given, so results are deterministic regardless of scheduling.
func (p *Project) AddSources(srcs []SourceFile) []*FileUnit {
	return p.AddSourcesCtx(context.Background(), srcs)
}

// AddSourcesCtx is AddSources under an observability context: when ctx
// carries an obs.Tracer, each file's preprocessing and parsing is recorded
// as "preprocess"/"parse" spans (see internal/obs).
func (p *Project) AddSourcesCtx(ctx context.Context, srcs []SourceFile) []*FileUnit {
	env := p.envSnapshot()
	units := make([]*FileUnit, len(srcs))
	// ctx only carries the tracer here: every file is parsed.
	fanOut(context.WithoutCancel(ctx), len(srcs), runtime.GOMAXPROCS(0), func(i int) {
		sf := srcs[i]
		art := p.frontend(ctx, sf.Name, sf.Src, env, true)
		units[i] = &FileUnit{Name: sf.Name, AST: art.ast, Errs: art.errs, src: sf.Src, art: art}
	})

	p.mu.Lock()
	p.files = append(p.files, units...)
	p.mu.Unlock()
	return units
}

// AnalyzeSources adds srcs to the project and analyzes them in one call.
// See AnalyzeSourcesCtx.
func (p *Project) AnalyzeSources(srcs []SourceFile, opts Options) *Result {
	res, _ := p.AnalyzeSourcesCtx(context.Background(), srcs, opts)
	return res
}

// AnalyzeSourcesCtx appends srcs as pending units and analyzes the project.
// Unlike AddSources+Analyze — which parses every file to a barrier before
// any extraction starts — the pending units enter Analyze's pipelined
// schedule (at InterprocDepth 0), so one worker carries a file from
// preprocess through extraction while others are still parsing later files.
// The result is byte-identical to the two-call sequence; only the schedule
// differs.
func (p *Project) AnalyzeSourcesCtx(ctx context.Context, srcs []SourceFile, opts Options) (*Result, error) {
	units := make([]*FileUnit, len(srcs))
	for i, sf := range srcs {
		// envStale routes the unit through the front-end on first analysis.
		units[i] = &FileUnit{Name: sf.Name, src: sf.Src, envStale: true}
	}
	p.mu.Lock()
	p.files = append(p.files, units...)
	p.mu.Unlock()
	return p.analyze(ctx, opts)
}

// Files returns a snapshot of the file units in insertion order.
func (p *Project) Files() []*FileUnit {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*FileUnit, len(p.files))
	copy(out, p.files)
	return out
}

// Clone returns a project with the same headers, defines and parsed files.
// The clone shares the originals' immutable artifact records and the stage
// caches (copy-on-write: recomputation installs fresh records on one
// project without touching the other), so a clone may be analyzed
// concurrently with the original and re-analyzing a clone after one
// ReplaceSource recomputes exactly that file.
func (p *Project) Clone() *Project {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := &Project{
		headers: make(map[string]string, len(p.headers)),
		defines: make(map[string]string, len(p.defines)),
		files:   make([]*FileUnit, 0, len(p.files)),
		envHash: p.envHash,
		memo:    p.memo,
		parses:  p.parses,
		memoEnv: p.memoEnv,
		stages:  p.stages,
		syms:    p.syms,

		legacyFrontend: p.legacyFrontend,
		seqGlobal:      p.seqGlobal,
	}
	for k, v := range p.headers {
		q.headers[k] = v
	}
	for k, v := range p.defines {
		q.defines[k] = v
	}
	for _, fu := range p.files {
		q.files = append(q.files, &FileUnit{
			Name: fu.Name, AST: fu.AST, Table: fu.Table, Sites: fu.Sites,
			Errs: fu.Errs, src: fu.src, art: fu.art, envStale: fu.envStale,
		})
	}
	return q
}

// ReplaceSource swaps one file's source in place, keeping every other
// file's cached artifacts valid. When the new source preprocesses to the
// same content hash (whitespace or comment-only edit), the existing unit —
// including its cached extraction — is kept as is. It returns the unit, or
// nil when no file of that name exists.
func (p *Project) ReplaceSource(name, src string) *FileUnit {
	return p.ReplaceSourceCtx(context.Background(), name, src)
}

// ReplaceSourceCtx is ReplaceSource under an observability context: when the
// front-end actually runs (changed content), it is recorded as
// "preprocess"/"parse" spans on ctx's tracer.
func (p *Project) ReplaceSourceCtx(ctx context.Context, name, src string) *FileUnit {
	p.mu.Lock()
	idx := -1
	for i, fu := range p.files {
		if fu.Name == name {
			idx = i
			break
		}
	}
	p.mu.Unlock()
	if idx < 0 {
		return nil
	}
	env := p.envSnapshot()
	art := p.frontend(ctx, name, src, env, true)
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.files[idx]
	if old.art != nil && old.art.preHash == art.preHash && !old.envStale {
		old.src = src
		return old
	}
	fu := &FileUnit{Name: name, AST: art.ast, Errs: art.errs, src: src, art: art}
	p.files[idx] = fu
	return fu
}

// Pairing is a set of barrier sites inferred to run concurrently. Sites[0]
// is the write barrier the pairing was built from.
type Pairing struct {
	Sites []*access.Site
	// Common is the shared-object set the pairing is based on.
	Common []access.Object
	// Weight is the distance product of the winning object pair (lower is
	// a closer, more confident pairing).
	Weight int
}

// Writer returns the originating write-side barrier.
func (pr *Pairing) Writer() *access.Site { return pr.Sites[0] }

// Readers returns the paired sites other than the originating writer.
func (pr *Pairing) Readers() []*access.Site { return pr.Sites[1:] }

// String renders the pairing.
func (pr *Pairing) String() string {
	s := fmt.Sprintf("pairing[w=%d] %s(%s)", pr.Weight, pr.Sites[0].Fn.Name, pr.Sites[0].Name)
	for _, r := range pr.Sites[1:] {
		s += fmt.Sprintf(" <-> %s(%s)", r.Fn.Name, r.Name)
	}
	return s
}

// Timing is the per-phase cost breakdown of one Analyze call.
type Timing struct {
	// Extract covers per-file table building and access extraction (zero
	// for files served from the incremental cache).
	Extract time.Duration
	// Pair covers the global Algorithm 1 pass.
	Pair time.Duration
	// Check covers the deviation checkers.
	Check time.Duration
}

// Result is the outcome of Analyze.
type Result struct {
	Timing   Timing
	Sites    []*access.Site
	Pairings []*Pairing
	// Unpaired are barrier sites not in any pairing.
	Unpaired []*access.Site
	// ImplicitIPC are write barriers left unpaired because a wake-up call
	// closer than any shared object acts as the implicit read barrier.
	ImplicitIPC []*access.Site
	Findings    []*Finding
	// ParseErrors aggregates per-file diagnostics.
	ParseErrors []error
	// Inferred lists the functions the interprocedural fixpoint classified
	// as implicit barriers (nil when InterprocDepth is 0).
	Inferred []semprop.InferredFn
	// CallGraph holds the interprocedural call-graph statistics (zero when
	// InterprocDepth is 0).
	CallGraph callgraph.Stats
	// Incremental reports per-file cache reuse for this call. Excluded from
	// ResultView so incremental and cold runs serialize identically.
	Incremental IncrementalStats
	// PairStats reports the pairing engine's execution counters (shards,
	// index probes, bound-pruned candidate pairs). Excluded from ResultView
	// so sequential and parallel runs serialize identically.
	PairStats PairStats
}

// Analyze runs extraction, pairing and checking over every file.
func (p *Project) Analyze(opts Options) *Result {
	res, _ := p.analyze(context.Background(), opts)
	return res
}

// AnalyzeParallel is Analyze with request-scoped cancellation: per-file
// extraction and per-pairing checking fan out across a bounded worker pool,
// and the analysis aborts between work items as soon as ctx is canceled or
// times out, returning ctx's error. This is the entry point the serving
// subsystem (internal/service) and the CLIs route through.
func (p *Project) AnalyzeParallel(ctx context.Context, opts Options) (*Result, error) {
	return p.analyze(ctx, opts)
}

// analyze is the shared pipeline behind Analyze and AnalyzeParallel. Every
// file goes through the same per-unit steps — front-end refresh
// (refreshUnit), then reuse-or-extract (extractUnit) — on one bounded pool;
// the depths differ only in where the barrier sits. At depth 0 a file's
// extraction depends on nothing but that file, so one pass carries each
// file from refresh through extraction and the parse of a later file
// overlaps the extraction of an earlier one. In interprocedural mode the
// call graph and the fixpoint need every file's facts first, so a refresh
// pass (plus per-file facts) runs to a barrier, then the global phases,
// then the extraction pass.
func (p *Project) analyze(ctx context.Context, opts Options) (*Result, error) {
	if opts.MinSharedObjects <= 0 {
		opts.MinSharedObjects = 2
	}
	// Serialize runs on this project: runs swap per-unit artifact records.
	p.runMu.Lock()
	defer p.runMu.Unlock()
	ctx, asp := obs.Start(ctx, "analyze")
	defer asp.End()
	res := &Result{}

	env := p.envSnapshot()
	p.mu.Lock()
	files := make([]*FileUnit, len(p.files))
	copy(files, p.files)
	p.mu.Unlock()
	asp.Add("files", int64(len(files)))

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	run := &extractRun{
		env:     env,
		fp:      opts.Fingerprint(),
		cache:   p.stages.Stage(stageExtract),
		aopts:   opts.Access,
		release: opts.ReleaseASTs,
		dropAST: opts.ReleaseASTs && opts.InterprocDepth == 0,
	}
	run.aopts.Syms = p.extractSyms()

	if opts.InterprocDepth > 0 {
		if err := p.interprocPhases(ctx, files, opts, workers, run, res); err != nil {
			return nil, err
		}
	}

	// Per-file extraction.
	ectx, esp := obs.Start(ctx, "extract")
	phaseStart := time.Now()
	var busyNS atomic.Int64
	fanOut(ctx, len(files), workers, func(i int) {
		start := time.Now()
		p.extractUnit(ectx, run, files[i])
		busyNS.Add(int64(time.Since(start)))
	})
	if opts.ReleaseASTs && opts.InterprocDepth > 0 {
		// Extraction is done and the call graph is built: drop every
		// unit's top-level AST reference — and the facts and summaries
		// pointing into it — so steady-state residency is sites and
		// tables, not parse trees. The next interprocedural run's refresh
		// re-frontends released units.
		p.mu.Lock()
		for _, fu := range files {
			if fu.art != nil && fu.art.ast != nil {
				fu.art = fu.art.withoutAST()
			}
			fu.AST = nil
		}
		p.mu.Unlock()
	}
	res.Timing.Extract = time.Since(phaseStart)
	if err := ctx.Err(); err != nil {
		esp.End()
		return nil, err
	}

	var frontTokens, frontArena int64
	for _, fu := range files {
		res.Sites = append(res.Sites, fu.Sites...)
		res.ParseErrors = append(res.ParseErrors, fu.Errs...)
		if fu.art != nil {
			frontTokens += int64(fu.art.tokens)
			frontArena += fu.art.arenaBytes
		}
	}
	res.Incremental = IncrementalStats{
		FilesTotal:      len(files),
		FilesReused:     int(run.reused.Load()),
		FilesRecomputed: int(run.recomputed.Load()),
	}
	esp.Add("files", int64(len(files)))
	esp.Add("files_reused", run.reused.Load())
	esp.Add("files_recomputed", run.recomputed.Load())
	esp.Add("sites", int64(len(res.Sites)))
	esp.Add("frontend.tokens", frontTokens)
	esp.Add("frontend.arena_bytes", frontArena)
	if wall := time.Since(phaseStart); wall > 0 && workers > 0 {
		esp.Add("pipeline.occupancy_pct", busyNS.Load()*100/(int64(wall)*int64(workers)))
	}
	esp.End()

	_, dsp := obs.Start(ctx, "dedup")
	dsp.Add("sites_in", int64(len(res.Sites)))
	if opts.InterprocDepth > 0 {
		// Cross-file inlining makes the same physical barrier visible from
		// callers in other files; keep the richest view, as per-file
		// extraction already does within one file.
		res.Sites = dedupSites(res.Sites)
	}
	sortSites(res.Sites)
	dsp.Add("sites_out", int64(len(res.Sites)))
	dsp.End()

	// Phase 2: global pairing (Algorithm 1), sharded over the worker pool
	// (see pair.go; the result is byte-identical at any worker count).
	phaseStart = time.Now()
	pctx, psp := obs.Start(ctx, "pair")
	pairer := newPairer(res.Sites, opts)
	res.Pairings, res.Unpaired, res.ImplicitIPC = pairer.run(pctx)
	res.PairStats = pairer.stats
	psp.Add("pairings", int64(len(res.Pairings)))
	psp.Add("unpaired", int64(len(res.Unpaired)))
	psp.Add("implicit_ipc", int64(len(res.ImplicitIPC)))
	psp.Add("candidates_pruned", res.PairStats.Pruned)
	psp.Add("candidates_pruned_bound", res.PairStats.PrunedBound)
	psp.Add("index_probes", res.PairStats.IndexProbes)
	psp.Add("pair_shards", int64(res.PairStats.Shards))
	psp.End()
	res.Timing.Pair = time.Since(phaseStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 3: checking, fanned out per pairing.
	phaseStart = time.Now()
	_, ksp := obs.Start(ctx, "check")
	ck := &checker{opts: opts}
	findings, err := ck.checkParallel(ctx, res, workers)
	if err != nil {
		ksp.End()
		return nil, err
	}
	res.Findings = findings
	ksp.Add("findings", int64(len(res.Findings)))
	ksp.End()
	res.Timing.Check = time.Since(phaseStart)

	// Phase 4: confidence ranking (internal/rank). Every finding is scored
	// from the outlier census, pairing margins, site richness and semantics
	// provenance; MinConfidence > 0 additionally gates the finding list.
	rankFindings(ctx, res, opts)
	return res, nil
}

// interprocPhases runs what interprocedural extraction needs before it can
// start. First a refresh pass re-runs the front end where a unit needs it
// (interprocedural analysis needs every parse tree) and computes the
// call-graph facts and semprop summaries of every unit that has none (new,
// edited or re-parsed files). That pass is a barrier: the call graph needs
// every unit's facts. Then the cross-file call graph and the barrier-
// semantics fixpoint run, so every file's exploration sees the inferred
// implicit barriers and can splice callees across file boundaries. Both
// are project-wide, so they always run, but over per-file facts and
// summaries kept for unchanged files: only the resolve and the fixpoint are
// global. The per-file extract cache stays sound because its keys fold in
// each file's dependency-closure hash — a one-file edit re-keys (and so
// re-extracts) every transitive caller, and only those. It fills run's
// interprocedural inputs and res's call-graph and inference fields.
func (p *Project) interprocPhases(ctx context.Context, files []*FileUnit, opts Options, workers int, run *extractRun, res *Result) error {
	var filesSummarized, fnsSummarized atomic.Int64
	fanOut(ctx, len(files), workers, func(i int) {
		fu := files[i]
		art := p.refreshUnit(ctx, fu, run.env, run.release)
		if art.facts != nil {
			return
		}
		next := art.withFacts(fu.Name)
		filesSummarized.Add(1)
		fnsSummarized.Add(int64(len(next.sums)))
		p.mu.Lock()
		fu.art = next
		p.mu.Unlock()
	})
	if err := ctx.Err(); err != nil {
		return err // canceled: units not reached stay stale, the next Analyze retries
	}

	// The call graph, with its file-level projection: each file's
	// dependency-closure hash for the extract keys.
	_, gsp := obs.Start(ctx, "callgraph")
	var g *callgraph.Graph
	var sums []*semprop.Summary
	if p.seqGlobal {
		cgf := make([]callgraph.File, 0, len(files))
		for _, fu := range files {
			cgf = append(cgf, callgraph.File{Name: fu.Name, AST: fu.AST})
		}
		g = callgraph.Build(cgf)
		run.closures = interprocClosures(g.FileDeps(), files)
	} else {
		facts := make([]*callgraph.Facts, len(files))
		for i, fu := range files {
			facts[i] = fu.art.facts
			sums = append(sums, fu.art.sums...)
		}
		g = callgraph.BuildFacts(facts)
		run.closures = interprocClosuresSCC(g.FileDeps(), files)
	}
	res.CallGraph = g.Stats()
	gsp.Add("functions", int64(res.CallGraph.Functions))
	gsp.Add("edges", int64(res.CallGraph.Edges))
	gsp.Add("unresolved", int64(res.CallGraph.Unresolved))
	gsp.Add("files_summarized", filesSummarized.Load())
	gsp.End()

	_, ssp := obs.Start(ctx, "semprop")
	sopts := semprop.Options{ExtraFull: opts.Access.ExtraBarrierSemantics}
	var inf *semprop.Inference
	if p.seqGlobal {
		sopts.Sequential = true
		inf = semprop.Infer(g, sopts)
	} else {
		inf = semprop.InferSummaries(g, sums, sopts)
	}
	res.Inferred = inf.Functions()
	ssp.Add("inferred", int64(len(res.Inferred)))
	ssp.Add("sccs", int64(inf.Components))
	ssp.Add("scc_levels", int64(inf.Levels))
	ssp.Add("fns_summarized", fnsSummarized.Load())
	ssp.End()

	run.aopts.InferredSemantics = inf.NameKinds()
	run.aopts.InterprocDepth = opts.InterprocDepth
	run.resolve = g.ResolverFor
	return nil
}

// fanOut runs f over [0, n) on at most workers goroutines, handing out
// indices in order and stopping once ctx is canceled (indices not yet
// started are skipped). Iterations must be independent; completion is a
// barrier.
func fanOut(ctx context.Context, n, workers int, f func(i int)) {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// dedupSites collapses sites with the same canonical barrier identity,
// keeping the richest view (first seen wins ties), preserving input order.
func dedupSites(sites []*access.Site) []*access.Site {
	best := map[string]*access.Site{}
	var order []string
	for _, s := range sites {
		id := s.ID()
		cur, ok := best[id]
		if !ok {
			best[id] = s
			order = append(order, id)
			continue
		}
		if s.Richness() > cur.Richness() {
			best[id] = s
		}
	}
	out := make([]*access.Site, 0, len(order))
	for _, id := range order {
		out = append(out, best[id])
	}
	return out
}

func sortSites(sites []*access.Site) {
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Col < b.Pos.Col
	})
}
