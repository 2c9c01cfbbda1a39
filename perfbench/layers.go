package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"ofence/internal/access"
	"ofence/internal/callgraph"
	"ofence/internal/cast"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/ctoken"
	"ofence/internal/ctypes"
	"ofence/internal/obs"
	"ofence/internal/ofence"
	"ofence/internal/semprop"
)

// spanAgg sums the spans of one name in a trace.
type spanAgg struct {
	n int
	// dur is the summed span duration, self the part not covered by
	// child spans.
	dur, self time.Duration
	counters  map[string]int64
}

// aggregate folds a finished trace into per-name totals.
func aggregate(t *obs.Tracer) map[string]*spanAgg {
	out := map[string]*spanAgg{}
	for _, sp := range t.Spans() {
		d, ok := sp.Elapsed()
		if !ok {
			continue
		}
		a := out[sp.Name()]
		if a == nil {
			a = &spanAgg{counters: map[string]int64{}}
			out[sp.Name()] = a
		}
		a.n++
		a.dur += d
		a.self += d
		for _, c := range sp.Children() {
			if cd, ok := c.Elapsed(); ok {
				a.self -= cd
			}
		}
		for _, c := range sp.Counters() {
			a.counters[c.Name] += c.Value
		}
	}
	return out
}

// spanMS returns the summed duration of the named spans in ms (0 if none).
func spanMS(a map[string]*spanAgg, name string) float64 {
	if s := a[name]; s != nil {
		return ms(s.dur)
	}
	return 0
}

func spanCount(a map[string]*spanAgg, name, counter string) float64 {
	if s := a[name]; s != nil {
		return float64(s.counters[counter])
	}
	return 0
}

// fileSet is one analysis input: sources plus their preprocessing
// environment.
type fileSet struct {
	srcs    []ofence.SourceFile
	headers map[string]string
	defines map[string]string
	depth   int
	// project builds a fresh project with this environment registered.
	project func() *ofence.Project
	// check verifies an analysis result against the input's ground truth.
	check func(*ofence.ResultView) error
}

func (fs fileSet) options(workers int) ofence.Options {
	opts := ofence.DefaultOptions()
	opts.InterprocDepth = fs.depth
	opts.Workers = workers
	return opts
}

// analyzeOp is one cold op over fs: fresh project, analysis, -json
// encoding. It returns the op's wall time, the time spent encoding, the
// encoded bytes and the view.
func analyzeOp(ctx context.Context, fs fileSet, workers int) (wall, enc time.Duration, js []byte, v ofence.ResultView, err error) {
	start := time.Now()
	p := fs.project()
	res, err := p.AnalyzeSourcesCtx(ctx, fs.srcs, fs.options(workers))
	if err != nil {
		return 0, 0, nil, v, err
	}
	encStart := time.Now()
	v = res.View()
	js, err = json.MarshalIndent(v, "", "  ")
	end := time.Now()
	return end.Sub(start), end.Sub(encStart), js, v, err
}

// profileIteration measures one file set layer by layer: an untraced
// Workers=1 op (wall time and GC work), a traced Workers=1 op (check and
// rank spans, the -json encoding), then every layer's exported entry
// point called directly at Workers=1 and, where the program parallelizes
// the layer, at Workers=GOMAXPROCS. The two ops swap order on odd
// iterations, so neither gains from running second.
func profileIteration(ctx context.Context, o *outcome, iter int, fs fileSet, s *samples, gcs *gcSamples, free bool) (opW1, tracedW1 float64, err error) {
	release := func() {
		if free {
			debug.FreeOSMemory()
		}
	}
	// Both ops must pass the ground-truth check, and tracing must not
	// change the -json bytes.
	var ref []byte
	verify := func(what string, js []byte, v *ofence.ResultView) {
		err := fs.check(v)
		if ref == nil {
			ref = js
		} else if err == nil && !bytes.Equal(js, ref) {
			err = errors.New("traced and untraced -json differ")
		}
		o.checked(what, err)
	}
	untraced := func() error {
		g0 := readGC()
		wall, _, js, v, err := analyzeOp(ctx, fs, 1)
		if err != nil {
			return err
		}
		gcs.add(g0.to(readGC()))
		verify("untraced op", js, &v)
		opW1 = ms(wall)
		return nil
	}
	traced := func() error {
		tracer := obs.New()
		wall, enc, js, v, err := analyzeOp(obs.WithTracer(ctx, tracer), fs, 1)
		if err != nil {
			return err
		}
		verify("traced op", js, &v)
		spans := aggregate(tracer)
		s.add("check.ms", spanMS(spans, "check"))
		s.add("rank.ms", spanMS(spans, "rank"))
		s.add("json.ms", ms(enc))
		s.add("json.mb", float64(len(js))/(1<<20))
		tracedW1 = ms(wall)
		return nil
	}
	order := []func() error{untraced, traced}
	if iter%2 == 1 {
		order[0], order[1] = traced, untraced
	}
	for _, op := range order {
		if err := op(); err != nil {
			return 0, 0, err
		}
		release()
	}
	ref = nil

	profileLayers(ctx, fs, s)
	release()
	return opW1, tracedW1, nil
}

// frontUnit is one file's front-end output in a layer profile.
type frontUnit struct {
	name  string
	ast   *cast.File
	table *ctypes.Table
}

// profileLayers runs the pipeline's layers one exported entry point at a
// time over fs and records each layer's time and work counts.
func profileLayers(ctx context.Context, fs fileSet, s *samples) {
	syms := ctoken.NewSymTab()
	copts := cpp.Options{Include: fs.headers, Defines: fs.defines, Syms: syms}
	var cppD, parseD, typesD time.Duration
	var toks, decls, arena int64
	units := make([]frontUnit, 0, len(fs.srcs))
	for _, sf := range fs.srcs {
		t0 := time.Now()
		pre := cpp.PreprocessCtx(ctx, sf.Name, sf.Src, copts)
		t1 := time.Now()
		ast, _, ab := cparser.ParseTokensMetered(ctx, sf.Name, pre)
		t2 := time.Now()
		table := ctypes.NewTable(ast)
		t3 := time.Now()
		cppD += t1.Sub(t0)
		parseD += t2.Sub(t1)
		typesD += t3.Sub(t2)
		toks += int64(len(pre.Tokens))
		decls += int64(len(ast.Decls))
		arena += ab
		units = append(units, frontUnit{name: sf.Name, ast: ast, table: table})
	}
	s.add("cpp.ms", ms(cppD))
	s.add("cpp.files", float64(len(units)))
	s.add("cpp.mtok_per_s", float64(toks)/1e6/cppD.Seconds())
	s.add("cparser.ms", ms(parseD))
	s.add("cparser.decls", float64(decls))
	s.add("cparser.arena_mb", float64(arena)/(1<<20))
	s.add("ctypes.ms", ms(typesD))

	opts := fs.options(1)
	aopts := opts.Access
	aopts.Syms = syms
	aopts.InterprocDepth = fs.depth
	var resolve func(string) func(string) *cast.FuncDecl
	if fs.depth > 0 {
		cgf := make([]callgraph.File, len(units))
		for i, u := range units {
			cgf[i] = callgraph.File{Name: u.name, AST: u.ast}
		}
		g, d1 := timed(func() *callgraph.Graph { return callgraph.BuildParallel(cgf, 1) })
		_, dn := timed(func() *callgraph.Graph { return callgraph.BuildParallel(cgf, gomaxprocs()) })
		s.add("callgraph.ms", ms(d1))
		s.add("callgraph.ms_wn", ms(dn))
		s.add("callgraph.edges", float64(g.Stats().Edges))
		sopts := semprop.Options{ExtraFull: opts.Access.ExtraBarrierSemantics}
		sopts.Workers = 1
		inf, i1 := timed(func() *semprop.Inference { return semprop.Infer(g, sopts) })
		sopts.Workers = gomaxprocs()
		_, in := timed(func() *semprop.Inference { return semprop.Infer(g, sopts) })
		s.add("semprop.ms", ms(i1))
		s.add("semprop.ms_wn", ms(in))
		s.add("semprop.levels", float64(inf.Levels))
		s.add("semprop.inferred", float64(len(inf.Functions())))
		aopts.InferredSemantics = inf.NameKinds()
		resolve = g.ResolverFor
	} else {
		for _, name := range []string{"callgraph.ms", "callgraph.ms_wn", "callgraph.edges",
			"semprop.ms", "semprop.ms_wn", "semprop.levels", "semprop.inferred"} {
			s.add(name, 0)
		}
	}

	extract := func(workers int) ([]*access.Site, time.Duration) {
		perFile := make([][]*access.Site, len(units))
		start := time.Now()
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i, u := range units {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, u frontUnit) {
				defer wg.Done()
				defer func() { <-sem }()
				uo := aopts
				if resolve != nil {
					uo.Resolve = resolve(u.name)
				}
				perFile[i] = access.NewExtractor(u.name, u.table, uo).ExtractFileCtx(ctx, u.ast)
			}(i, u)
		}
		wg.Wait()
		d := time.Since(start)
		var sites []*access.Site
		for _, fileSites := range perFile {
			sites = append(sites, fileSites...)
		}
		return sites, d
	}
	sites, e1 := extract(1)
	_, en := extract(gomaxprocs())
	if fs.depth > 0 {
		sites = dedupSites(sites)
	}
	s.add("access.ms", ms(e1))
	s.add("access.ms_wn", ms(en))
	s.add("access.files", float64(len(units)))
	s.add("access.sites", float64(len(sites)))

	pairAt := func(workers int) (int, ofence.PairStats, time.Duration) {
		po := opts
		po.Workers = workers
		start := time.Now()
		pairings, _, _, st := ofence.PairSites(ctx, sites, po)
		return len(pairings), st, time.Since(start)
	}
	n, st, p1 := pairAt(1)
	_, _, pn := pairAt(gomaxprocs())
	s.add("pair.ms", ms(p1))
	s.add("pair.ms_wn", ms(pn))
	s.add("pair.index_probes", float64(st.IndexProbes))
	s.add("pair.pairings", float64(n))
}

// dedupSites keeps one site per barrier identity, the richest view (first
// seen wins ties), as interprocedural analysis does when cross-file
// inlining shows one barrier from several callers.
func dedupSites(sites []*access.Site) []*access.Site {
	best := map[string]int{}
	var out []*access.Site
	for _, s := range sites {
		id := s.ID()
		i, ok := best[id]
		if !ok {
			best[id] = len(out)
			out = append(out, s)
			continue
		}
		if s.Richness() > out[i].Richness() {
			out[i] = s
		}
	}
	return out
}

func timed[T any](f func() T) (T, time.Duration) {
	start := time.Now()
	v := f()
	return v, time.Since(start)
}

// serviceLayers and fleetLayers are the layer metrics of the serving
// paths.
var (
	serviceLayers = []string{"service.wait_ms", "service.hash_ms", "service.analyze_ms",
		"service.http_ms", "service.lineage_reuse_ratio"}
	fleetLayers = []string{"fleet.wait_ms", "fleet.run_ms", "fleet.tasks",
		"fleet.redispatches", "fleet.store_hit_ratio"}
)

// notOnPath reports layers the workload's path never runs as 0.
func notOnPath(o *outcome, names ...string) {
	for _, n := range names {
		o.set(n, 0, "-")
	}
}

// layerWorkers attributes a layer metric to its Workers setting.
func layerWorkers(name string) string {
	if strings.HasSuffix(name, "_wn") {
		return strconv.Itoa(gomaxprocs())
	}
	return "1"
}

// profileSets is the layer half of a traced run: layer profiles of the
// file sets next draws, repeated until d has passed, reported as medians.
// With free set, memory is returned to the OS between ops, so each op pays
// the page faults of a fresh process.
func profileSets(ctx context.Context, d time.Duration, o *outcome, next func() fileSet, free bool) error {
	s := newSamples()
	var gcs gcSamples
	var opW1, tracedW1 []float64
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		u, t, err := profileIteration(ctx, o, i, next(), s, &gcs, free)
		if err != nil {
			return err
		}
		opW1 = append(opW1, u)
		tracedW1 = append(tracedW1, t)
	}
	s.report(o, layerWorkers)
	gcs.report(o)
	o.set("p50_w1_ms", median(opW1), "1")
	finishLayers(o, median(opW1), median(tracedW1))
	o.note("layer profiles: %d", len(opW1))
	return nil
}

// ratio is part/whole, or 0 when nothing was counted.
func ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
