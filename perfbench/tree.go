package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/ctypes"
	"ofence/internal/kernelhdr"
	"ofence/internal/obs"
	"ofence/internal/ofence"
	"ofence/internal/sitegen"
)

// treeInput is the generated kernel tree of a tree workload, the same
// tree `ofence-corpus -tree <files> -seed <seed>` writes.
type treeInput struct {
	tree   *sitegen.Tree
	fs     fileSet
	expect treeExpect
}

func loadTree(cfg config, o *outcome) *treeInput {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(cfg.treeFiles, cfg.seed))
	in := &treeInput{tree: tr, expect: treeExpectations(tr, cfg.corrupt)}
	headers := kernelhdr.Headers()
	for _, h := range tr.Headers {
		headers[h.Name] = h.Src
	}
	defines := map[string]string{}
	for i, c := range tr.Configs {
		// Every other config symbol is defined, so #ifdef variance is
		// exercised in both states.
		if i%2 == 0 {
			defines[c] = "1"
		}
	}
	srcs := make([]ofence.SourceFile, len(tr.Files))
	for i, f := range tr.Files {
		srcs[i] = ofence.SourceFile{Name: f.Name, Src: f.Src}
	}
	in.fs = fileSet{
		check:   in.expect.check,
		srcs:    srcs,
		headers: headers,
		defines: defines,
		depth:   1,
		project: func() *ofence.Project {
			p := ofence.NewProject()
			kernelhdr.Register(p)
			for _, h := range tr.Headers {
				p.AddHeader(h.Name, h.Src)
			}
			for name, v := range defines {
				p.Define(name, v)
			}
			return p
		},
	}
	o.input("tree files=%d seed=%d hash=%s (ofence-corpus -tree %d -seed %d)",
		cfg.treeFiles, cfg.seed, tr.Hash(), cfg.treeFiles, cfg.seed)
	o.input("analysis InterprocDepth=1, Workers alternating %d and 1", gomaxprocs())
	return in
}

// measureSetup times setup reps times and reports the median in seconds.
// Before every rep but the first, teardown (untimed) undoes the previous
// one; the last rep's system is the one measured.
func measureSetup(o *outcome, reps int, setup, teardown func() error) error {
	var xs []float64
	for i := 0; i < max(reps, 1); i++ {
		if i > 0 {
			if err := teardown(); err != nil {
				return err
			}
		}
		start := time.Now()
		if err := setup(); err != nil {
			return err
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	o.set("setup_s", median(xs), "-")
	return nil
}

// runTreeCold measures cold CLI-equivalent analyses of the tree: a fresh
// project, AnalyzeSourcesCtx at InterprocDepth=1, the -json encoding.
func runTreeCold(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	in := loadTree(cfg, o)
	if cfg.trace {
		// Every op is a fresh project, so no stage or result cache serves it.
		notOnPath(o, serviceLayers...)
		notOnPath(o, fleetLayers...)
		notOnPath(o, "rescache.stage_hit_ratio", "rescache.result_hit_ratio")
		return o, profileSets(ctx, cfg.seconds, o, func() fileSet { return in.fs }, true)
	}
	// Set-up is what the CLI does before analysis: registering the kernel
	// headers, the tree's headers and its config symbols.
	if err := measureSetup(o, cfg.setupReps*10, func() error {
		in.fs.project()
		return nil
	}, func() error { return nil }); err != nil {
		return nil, err
	}

	var lat latencies
	var ref []byte
	op := func(i int, w1 bool) (time.Duration, error) {
		workers := gomaxprocs()
		if w1 {
			workers = 1
		}
		// Each op pays the page faults of a fresh process.
		debug.FreeOSMemory()
		wall, _, js, v, err := analyzeOp(ctx, in.fs, workers)
		if err != nil {
			return 0, err
		}
		err = in.expect.check(&v)
		if err == nil && ref != nil && !bytes.Equal(js, ref) {
			err = fmt.Errorf("-json at Workers=%d differs from the first op's", workers)
		}
		if ref == nil && err == nil {
			ref = js
		}
		o.checked(fmt.Sprintf("op %d", i), err)
		return wall, nil
	}
	// The process's first op also pays one-time costs (heap arenas mapped
	// from nothing, lazy initialization) that make it an outlier among the
	// few ops a run holds, so it runs untimed.
	if _, err := op(-1, false); err != nil {
		return nil, err
	}
	hs := startHeapSampler()
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		w1 := i%2 == 1
		wall, err := op(i, w1)
		if err != nil {
			return nil, err
		}
		lat.add(wall, w1)
	}
	o.set("peak_heap_mb", hs.peakMiB(), bothWorkers())
	lat.report(o, lat.busy)
	return o, nil
}

// literal matches an integer literal ending a statement in a function
// body ("p->pay_0003 = 412;", "p->aux_0003 = p->aux_0003 + 4;").
var literal = regexp.MustCompile(`(?m)^\t[^\n]*[=+] (\d+);$`)

// ifdefBlock matches a conditional block; literals inside one may be
// compiled out, which would make the edit a no-op.
var ifdefBlock = regexp.MustCompile(`(?s)#ifdef.*?#endif`)

// editLiteral changes one integer literal of one function body in src,
// outside conditional blocks.
func editLiteral(rng *rand.Rand, src string) (string, error) {
	blocks := ifdefBlock.FindAllStringIndex(src, -1)
	var locs [][]int
	for _, loc := range literal.FindAllStringSubmatchIndex(src, -1) {
		inside := false
		for _, b := range blocks {
			inside = inside || (loc[0] >= b[0] && loc[1] <= b[1])
		}
		if !inside {
			locs = append(locs, loc)
		}
	}
	if len(locs) == 0 {
		return "", fmt.Errorf("no integer literal to edit")
	}
	loc := locs[rng.Intn(len(locs))]
	old, err := strconv.Atoi(src[loc[2]:loc[3]])
	if err != nil {
		return "", err
	}
	next := old + 1 + rng.Intn(97)
	return src[:loc[2]] + strconv.Itoa(next) + src[loc[3]:], nil
}

// editState is the warm project of tree-edit and the sources it holds.
type editState struct {
	in   *treeInput
	p    *ofence.Project
	srcs []ofence.SourceFile
	rng  *rand.Rand
	last []byte
	// core and rest index the files that host a link of the core call
	// chain (every file depends on them) and the others, per the labels.
	core, rest []int
}

// pick draws the file of the j-th edit at one Workers setting. Edits land
// in core-chain files at exactly the tree's share of them, spread evenly
// over the run, so each run holds the same mix of whole-tree and
// one-subsystem re-extractions; the file within each class is drawn from
// the seed.
func (st *editState) pick(j int) int {
	n, nc := len(st.srcs), len(st.core)
	if (j+1)*nc/n > j*nc/n {
		return st.core[st.rng.Intn(nc)]
	}
	return st.rest[st.rng.Intn(len(st.rest))]
}

// editResult is the outcome of one edit op.
type editResult struct {
	wall, enc time.Duration
	file      string
	res       *ofence.Result
	view      ofence.ResultView
	js        []byte
}

// op applies one seeded edit to file i and re-analyzes: ReplaceSourceCtx,
// the depth-1 re-analysis, the -json encoding. ctx may carry a tracer.
// Callers collect the heap first (untimed), so whether a collection of the
// previous edit's garbage lands inside this one does not decide its
// latency.
func (st *editState) op(ctx context.Context, workers, i int) (*editResult, error) {
	src, err := editLiteral(st.rng, st.srcs[i].Src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", st.srcs[i].Name, err)
	}
	st.srcs[i].Src = src
	start := time.Now()
	if st.p.ReplaceSourceCtx(ctx, st.srcs[i].Name, src) == nil {
		return nil, fmt.Errorf("%s is not in the project", st.srcs[i].Name)
	}
	res, err := st.p.AnalyzeParallel(ctx, st.in.fs.options(workers))
	if err != nil {
		return nil, err
	}
	encStart := time.Now()
	r := &editResult{file: st.srcs[i].Name, res: res, view: res.View()}
	r.js, err = json.MarshalIndent(r.view, "", "  ")
	end := time.Now()
	r.wall, r.enc = end.Sub(start), end.Sub(encStart)
	st.last = r.js
	return r, err
}

// loadWarm builds the warm project of tree-edit (its set-up).
func loadWarm(ctx context.Context, in *treeInput) (*editState, error) {
	p := in.fs.project()
	if _, err := p.AnalyzeSourcesCtx(ctx, in.fs.srcs, in.fs.options(gomaxprocs())); err != nil {
		return nil, err
	}
	st := &editState{in: in, p: p, srcs: append([]ofence.SourceFile(nil), in.fs.srcs...)}
	for i, sf := range st.srcs {
		core := false
		for _, l := range in.tree.Labels[sf.Name] {
			core = core || l.Kind == "core-chain"
		}
		if core {
			st.core = append(st.core, i)
		} else {
			st.rest = append(st.rest, i)
		}
	}
	return st, nil
}

// finalCheck compares the warm project's last -json with a cold analysis
// of the final sources.
func (st *editState) finalCheck(ctx context.Context) error {
	p := st.in.fs.project()
	res, err := p.AnalyzeSourcesCtx(ctx, st.srcs, st.in.fs.options(gomaxprocs()))
	if err != nil {
		return err
	}
	js, err := json.MarshalIndent(res.View(), "", "  ")
	if err != nil {
		return err
	}
	if !bytes.Equal(js, st.last) {
		return fmt.Errorf("warm -json after the edits differs from a cold analysis of the final sources")
	}
	return nil
}

// runTreeEdit measures one-file edits re-analyzed on a warm project.
func runTreeEdit(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	in := loadTree(cfg, o)
	o.input("edits: one integer literal of one function body per op; core-chain files get exactly their share of the edits; files and literals drawn from seed %d", cfg.seed)
	var st *editState
	var err error
	if cfg.trace {
		st, err = loadWarm(ctx, in)
	} else {
		// Each warm load is several seconds, so set-up is timed at most
		// three times.
		err = measureSetup(o, min(cfg.setupReps, 3), func() error {
			var err error
			st, err = loadWarm(ctx, in)
			return err
		}, func() error {
			st = nil
			debug.FreeOSMemory()
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	st.rng = rand.New(rand.NewSource(cfg.seed))
	if cfg.trace {
		return o, profileEdits(ctx, cfg, o, st)
	}

	var lat latencies
	full := 0
	hs := startHeapSampler()
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		w1 := i%2 == 1
		workers := gomaxprocs()
		if w1 {
			workers = 1
		}
		runtime.GC()
		r, err := st.op(ctx, workers, st.pick(i/2))
		if err == nil {
			err = in.expect.check(&r.view)
			lat.add(r.wall, w1)
			if inc := r.res.Incremental; inc.FilesRecomputed == inc.FilesTotal {
				full++
			}
		}
		if err != nil {
			o.note("op %d failed: %v", i, err)
		}
		o.op(err == nil)
	}
	o.set("peak_heap_mb", hs.peakMiB(), bothWorkers())
	lat.report(o, lat.busy)
	o.note("edits re-extracting the whole tree: %d of %d", full, len(lat.wn)+len(lat.w1))
	o.checked("final check", st.finalCheck(ctx))
	return o, nil
}

// profileEdits is the traced run of tree-edit. The program's caches
// decide what an edit recomputes, so the layer times are read from the
// spans the analysis emits under a tracer; ctypes and the parse arena,
// which no span meters, are timed on the edited file directly. Each
// traced edit is paired with an untraced edit of the same file at the
// same Workers setting, so both recompute the same files; the pair swaps
// order on odd iterations.
func profileEdits(ctx context.Context, cfg config, o *outcome, st *editState) error {
	s := newSamples()
	var gcs gcSamples
	var opW1, tracedW1 []float64
	deadline := time.Now().Add(cfg.seconds)
	for iter := 0; iter == 0 || time.Now().Before(deadline); iter++ {
		for _, workers := range []int{1, gomaxprocs()} {
			file := st.pick(iter)
			untraced := func() error {
				runtime.GC()
				g0 := readGC()
				r, err := st.op(ctx, workers, file)
				if err != nil {
					return err
				}
				o.checked("untraced edit", st.in.expect.check(&r.view))
				if workers == 1 {
					gcs.add(g0.to(readGC()))
					opW1 = append(opW1, ms(r.wall))
				}
				return nil
			}
			traced := func() error {
				runtime.GC()
				tracer := obs.New()
				r, err := st.op(obs.WithTracer(ctx, tracer), workers, file)
				if err != nil {
					return err
				}
				o.checked("traced edit", st.in.expect.check(&r.view))
				a := aggregate(tracer)
				if workers == 1 {
					tracedW1 = append(tracedW1, ms(r.wall))
					recordEditSpans(ctx, s, a, r, st)
					return nil
				}
				s.add("access.ms_wn", spanMS(a, "extract"))
				s.add("callgraph.ms_wn", spanMS(a, "callgraph"))
				s.add("semprop.ms_wn", spanMS(a, "semprop"))
				s.add("pair.ms_wn", spanMS(a, "pair"))
				return nil
			}
			order := []func() error{untraced, traced}
			if iter%2 == 1 {
				order[0], order[1] = traced, untraced
			}
			for _, op := range order {
				if err := op(); err != nil {
					return err
				}
			}
		}
	}
	o.checked("final check", st.finalCheck(ctx))
	s.report(o, layerWorkers)
	gcs.report(o)
	notOnPath(o, serviceLayers...)
	notOnPath(o, fleetLayers...)
	notOnPath(o, "rescache.result_hit_ratio")
	o.set("p50_w1_ms", median(opW1), "1")
	finishLayers(o, median(opW1), median(tracedW1))
	return nil
}

// recordEditSpans turns one traced Workers=1 edit into layer samples.
func recordEditSpans(ctx context.Context, s *samples, a map[string]*spanAgg, r *editResult, st *editState) {
	cppMS := spanMS(a, "preprocess")
	s.add("cpp.ms", cppMS)
	s.add("cpp.files", float64(a["preprocess"].count()))
	if cppMS > 0 {
		s.add("cpp.mtok_per_s", spanCount(a, "preprocess", "tokens")/1e3/cppMS)
	}
	if p := a["parse"]; p != nil {
		s.add("cparser.ms", ms(p.self))
	}
	s.add("cparser.decls", spanCount(a, "parse", "decls"))
	s.add("access.ms", spanMS(a, "extract"))
	inc := r.res.Incremental
	s.add("access.files", float64(inc.FilesRecomputed))
	// Project.StageStats counts only lookups that reach a stage cache; a
	// unit whose extract key is unchanged is reused in place without one,
	// so the hit ratio is taken from the per-file reuse the result reports.
	s.add("rescache.stage_hit_ratio", float64(inc.FilesReused)/float64(inc.FilesTotal))
	s.add("access.sites", float64(len(r.res.Sites)))
	s.add("callgraph.ms", spanMS(a, "callgraph"))
	s.add("callgraph.edges", spanCount(a, "callgraph", "edges"))
	s.add("semprop.ms", spanMS(a, "semprop"))
	s.add("semprop.levels", spanCount(a, "semprop", "scc_levels"))
	s.add("semprop.inferred", spanCount(a, "semprop", "inferred"))
	s.add("pair.ms", spanMS(a, "pair"))
	s.add("pair.index_probes", spanCount(a, "pair", "index_probes"))
	s.add("pair.pairings", spanCount(a, "pair", "pairings"))
	s.add("check.ms", spanMS(a, "check"))
	s.add("rank.ms", spanMS(a, "rank"))
	s.add("json.ms", ms(r.enc))
	s.add("json.mb", float64(len(r.js))/(1<<20))

	// The edited file's symbol table and parse arena, through the
	// layers' entry points.
	var src string
	for _, sf := range st.srcs {
		if sf.Name == r.file {
			src = sf.Src
		}
	}
	pre := cpp.PreprocessCtx(ctx, r.file, src, cpp.Options{Include: st.in.fs.headers, Defines: st.in.fs.defines})
	ast, _, arena := cparser.ParseTokensMetered(ctx, r.file, pre)
	_, d := timed(func() *ctypes.Table { return ctypes.NewTable(ast) })
	s.add("ctypes.ms", ms(d))
	s.add("cparser.arena_mb", float64(arena)/(1<<20))
}

func (a *spanAgg) count() int {
	if a == nil {
		return 0
	}
	return a.n
}
