// Package service is the serving subsystem behind the ofence-serve daemon:
// an asynchronous job model over a bounded worker pool, with request-scoped
// timeouts and cancellation, graceful drain on shutdown, and a
// content-addressed result cache (internal/rescache) so that re-analyzing
// unchanged source is a hash lookup instead of a full pipeline run.
//
// The analysis itself is ofence.Project.AnalyzeParallel — one project per
// job, so concurrent jobs never share mutable analysis state.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ofence/internal/cpp"
	"ofence/internal/kernelhdr"
	"ofence/internal/obs"
	"ofence/internal/ofence"
	"ofence/internal/rescache"
)

// Sentinel errors surfaced to API clients.
var (
	ErrQueueFull = errors.New("analysis queue is full")
	ErrClosed    = errors.New("service is draining")
	ErrNoFiles   = errors.New("request has no source files")
	ErrTooLarge  = errors.New("request exceeds the source size limit")
)

// Request is one analysis submission: a set of named C sources plus
// optional preprocessor defines (kernel config symbols). The bundled
// miniature kernel include tree is always available to #include.
type Request struct {
	Files   map[string]string `json:"files"`
	Defines map[string]string `json:"defines,omitempty"`
}

// OptionsSpec is the wire form of the analysis options; zero fields keep
// the paper's defaults.
type OptionsSpec struct {
	WriteWindow      int  `json:"write_window,omitempty"`
	ReadWindow       int  `json:"read_window,omitempty"`
	InlineDepth      *int `json:"inline_depth,omitempty"`
	InterprocDepth   int  `json:"interproc_depth,omitempty"`
	MinSharedObjects int  `json:"min_shared_objects,omitempty"`
	CheckOnce        bool `json:"check_once,omitempty"`
	Workers          int  `json:"workers,omitempty"`
	// MinConfidence gates findings by the ranking pass's score
	// (internal/rank); 0 keeps every finding. Folded into the result-cache
	// fingerprint: gated and ungated results never alias.
	MinConfidence float64 `json:"min_confidence,omitempty"`
}

// Resolve maps the spec onto the engine options. It is exported for the
// fleet subsystem, whose workers resolve the same wire spec the service
// accepts so that coordinator-dispatched jobs use identical options.
func (o OptionsSpec) Resolve() ofence.Options { return o.resolve() }

// resolve maps the spec onto the engine options.
func (o OptionsSpec) resolve() ofence.Options {
	opts := ofence.DefaultOptions()
	if o.WriteWindow > 0 {
		opts.Access.WriteWindow = o.WriteWindow
	}
	if o.ReadWindow > 0 {
		opts.Access.ReadWindow = o.ReadWindow
	}
	if o.InlineDepth != nil {
		opts.Access.InlineDepth = *o.InlineDepth
	}
	if o.InterprocDepth > 0 {
		opts.InterprocDepth = o.InterprocDepth
	}
	if o.MinSharedObjects > 0 {
		opts.MinSharedObjects = o.MinSharedObjects
	}
	opts.CheckOnce = o.CheckOnce
	if o.Workers > 0 {
		opts.Workers = o.Workers
	}
	if o.MinConfidence > 0 {
		opts.MinConfidence = o.MinConfidence
	}
	return opts
}

// fingerprint folds every option that can change analysis RESULTS into the
// cache key. Workers is deliberately excluded: it changes scheduling, never
// output. This is the engine's own per-file staging fingerprint, so the
// whole-result cache and the incremental caches invalidate together.
func fingerprint(opts ofence.Options) string {
	return opts.Fingerprint()
}

// ResultViewCodec translates cached *ofence.ResultView values to and from
// JSON blobs for an ArtifactStore. The fleet coordinator uses the same
// codec for its job-result tier, so a result computed by a worker, a
// single-process service, or a previous incarnation before a restart is
// interchangeable.
func ResultViewCodec() rescache.Codec {
	return rescache.Codec{
		Encode: func(v any) ([]byte, error) {
			view, ok := v.(*ofence.ResultView)
			if !ok {
				return nil, fmt.Errorf("result codec: unexpected value %T", v)
			}
			return json.Marshal(view)
		},
		Decode: func(blob []byte) (any, error) {
			view := &ofence.ResultView{}
			if err := json.Unmarshal(blob, view); err != nil {
				return nil, err
			}
			return view, nil
		},
	}
}

// JobState is the lifecycle of a job.
type JobState string

// Job states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Job is one tracked analysis. All mutable fields are guarded by mu; Done
// is closed exactly once when the job reaches a terminal state.
type Job struct {
	id   string
	req  *Request
	opts ofence.Options
	done chan struct{}

	mu        sync.Mutex
	state     JobState
	cacheHit  bool
	errMsg    string
	result    *ofence.ResultView
	submitted time.Time
	waitDur   time.Duration
	hashDur   time.Duration
	analyzeD  time.Duration
	totalDur  time.Duration
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobView is the JSON projection of a job.
type JobView struct {
	ID        string             `json:"id"`
	State     JobState           `json:"state"`
	CacheHit  bool               `json:"cache_hit"`
	Error     string             `json:"error,omitempty"`
	Result    *ofence.ResultView `json:"result,omitempty"`
	WaitMS    float64            `json:"wait_ms"`
	HashMS    float64            `json:"hash_ms"`
	AnalyzeMS float64            `json:"analyze_ms"`
	TotalMS   float64            `json:"total_ms"`
}

// View snapshots the job.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return JobView{
		ID:        j.id,
		State:     j.state,
		CacheHit:  j.cacheHit,
		Error:     j.errMsg,
		Result:    j.result,
		WaitMS:    ms(j.waitDur),
		HashMS:    ms(j.hashDur),
		AnalyzeMS: ms(j.analyzeD),
		TotalMS:   ms(j.totalDur),
	}
}

// Config sizes the service. Zero fields pick the defaults noted per field.
type Config struct {
	// Workers is the analysis pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds queued-but-unstarted jobs (default 64); beyond it
	// Submit fails with ErrQueueFull.
	QueueDepth int
	// CacheEntries bounds the result cache (default 256 results).
	CacheEntries int
	// JobTimeout bounds one analysis (default 30s).
	JobTimeout time.Duration
	// MaxSourceBytes bounds the total source size of one request
	// (default 8 MiB).
	MaxSourceBytes int
	// MaxJobs bounds how many finished jobs stay queryable (default 1024);
	// the oldest finished jobs are forgotten first.
	MaxJobs int
	// WarmLineages bounds how many warm projects are kept, one per source-set
	// lineage (same file names + defines), so repeat submissions re-analyze
	// incrementally instead of from scratch (default 32; negative disables
	// warm reuse and builds a fresh project per job).
	WarmLineages int
	// Store is an optional artifact tier layered behind the result cache
	// and the per-file stage caches (see internal/rescache.ArtifactStore):
	// results and serializable stage artifacts computed here are published
	// to it, and entries computed by any process sharing the store — a
	// previous incarnation after a restart, or fleet workers — are hits.
	// nil keeps the caches memory-only. The service does not close the
	// store; the owner does.
	Store rescache.ArtifactStore
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 30 * time.Second
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 8 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.WarmLineages == 0 {
		c.WarmLineages = 32
	}
	return c
}

// Service runs analysis jobs on a bounded worker pool with a shared result
// cache. Create with New, stop with Close.
type Service struct {
	cfg     Config
	cache   *rescache.Cache
	stages  *rescache.Stages
	headers map[string]string
	// memo shares header expansions between the cache-key preprocessing
	// of every request; it is bound to headers, and request defines are
	// part of its macro-state key.
	memo       *cpp.Memo
	met        *metrics
	queue      chan *Job
	quit       chan struct{}
	baseCtx    context.Context
	cancelBase context.CancelFunc
	wg         sync.WaitGroup
	busy       atomic.Int64

	mu     sync.Mutex
	closed bool
	jobs   map[string]*Job
	order  []string
	nextID uint64

	// warm maps a source-set lineage (same file names + defines) to its
	// long-lived project, bounded by cfg.WarmLineages with LRU eviction.
	warmMu sync.Mutex
	warm   map[string]*warmProject

	// analyzeFn is the job body; tests may replace it before any Submit to
	// inject blocking or failing analyses.
	analyzeFn func(ctx context.Context, req *Request, opts ofence.Options) (*ofence.ResultView, error)
}

// New starts a service with cfg's worker pool.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		cache:      rescache.New(cfg.CacheEntries),
		stages:     rescache.NewStages(0),
		headers:    kernelhdr.Headers(),
		memo:       cpp.NewMemo(nil),
		met:        newMetrics(),
		queue:      make(chan *Job, cfg.QueueDepth),
		quit:       make(chan struct{}),
		baseCtx:    ctx,
		cancelBase: cancel,
		jobs:       map[string]*Job{},
		warm:       map[string]*warmProject{},
	}
	if cfg.Store != nil {
		s.cache.AttachStore(cfg.Store, ResultViewCodec())
		s.stages.AttachStore(cfg.Store, ofence.StageCodecs())
	}
	s.analyzeFn = s.defaultAnalyze
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// defaultAnalyze runs the real pipeline over a clone of the request's warm
// lineage project: repeat submissions of an evolving source set re-run the
// per-file stages only for changed files. Clones share immutable artifacts
// and the stage caches, so concurrent jobs never share mutable analysis
// state.
func (s *Service) defaultAnalyze(ctx context.Context, req *Request, opts ofence.Options) (*ofence.ResultView, error) {
	proj := s.projectFor(ctx, req)
	res, err := proj.AnalyzeParallel(ctx, opts)
	if err != nil {
		return nil, err
	}
	s.met.add(&s.met.filesReused, uint64(res.Incremental.FilesReused))
	s.met.add(&s.met.filesRecomputed, uint64(res.Incremental.FilesRecomputed))
	v := res.View()
	return &v, nil
}

// warmProject is one lineage's long-lived project. mu serializes source
// swaps and the initial build; jobs analyze clones, never proj itself.
type warmProject struct {
	mu   sync.Mutex
	proj *ofence.Project
	used time.Time
}

// lineageKey identifies a warm project: the sorted file NAMES plus the
// defines. File contents are deliberately excluded — a lineage is an
// evolving source set, and content changes are what the incremental
// pipeline absorbs.
func lineageKey(req *Request) string {
	names := sortedNames(req.Files)
	parts := make([]string, 0, len(names)+2*len(req.Defines))
	for _, n := range names {
		parts = append(parts, "F"+n)
	}
	defs := make([]string, 0, len(req.Defines))
	for k := range req.Defines {
		defs = append(defs, k)
	}
	sort.Strings(defs)
	for _, k := range defs {
		parts = append(parts, "D"+k, req.Defines[k])
	}
	return string(rescache.KeyOf("lineage-v1", parts...))
}

// projectFor returns the project a job analyzes. With warm reuse enabled it
// is a clone of the request's lineage project, refreshed to the request's
// contents (unchanged files keep their artifacts); otherwise a fresh
// project.
func (s *Service) projectFor(ctx context.Context, req *Request) *ofence.Project {
	if s.cfg.WarmLineages < 0 {
		return s.buildProject(ctx, req)
	}
	key := lineageKey(req)
	s.warmMu.Lock()
	w, ok := s.warm[key]
	if ok {
		s.met.count(&s.met.lineageHits)
	} else {
		s.met.count(&s.met.lineageMisses)
		w = &warmProject{}
		s.warm[key] = w
		for len(s.warm) > s.cfg.WarmLineages {
			oldestKey := ""
			var oldest time.Time
			for k, cand := range s.warm {
				if k != key && (oldestKey == "" || cand.used.Before(oldest)) {
					oldestKey, oldest = k, cand.used
				}
			}
			if oldestKey == "" {
				break
			}
			delete(s.warm, oldestKey)
			s.met.count(&s.met.lineageEvictions)
		}
	}
	w.used = time.Now()
	s.warmMu.Unlock()

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.proj == nil {
		w.proj = s.buildProject(ctx, req)
	} else {
		for _, name := range sortedNames(req.Files) {
			w.proj.ReplaceSourceCtx(ctx, name, req.Files[name])
		}
	}
	return w.proj.Clone()
}

// buildProject assembles a cold project for the request. Every project
// shares the service-wide stage caches (content-addressed, so sharing
// across unrelated requests is safe by construction) and, through them,
// the optional artifact store.
func (s *Service) buildProject(ctx context.Context, req *Request) *ofence.Project {
	proj := ofence.NewProjectWithStages(s.stages)
	kernelhdr.Register(proj)
	for k, v := range req.Defines {
		proj.Define(k, v)
	}
	srcs := make([]ofence.SourceFile, 0, len(req.Files))
	for _, name := range sortedNames(req.Files) {
		srcs = append(srcs, ofence.SourceFile{Name: name, Src: req.Files[name]})
	}
	proj.AddSourcesCtx(ctx, srcs)
	return proj
}

// WarmLineages returns the number of warm projects currently kept.
func (s *Service) WarmLineages() int {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	return len(s.warm)
}

func sortedNames(m map[string]string) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// contentKey computes the job's cache key: the SHA-256 of every file's
// PREPROCESSED token stream (so include resolution, macro expansion and
// config defines are folded in) combined with the options fingerprint. See
// DESIGN.md "Result cache" for the invalidation rules.
func (s *Service) contentKey(req *Request, opts ofence.Options) rescache.Key {
	names := sortedNames(req.Files)
	parts := make([]string, 0, 2*len(names))
	for _, name := range names {
		pre := cpp.Preprocess(name, req.Files[name], cpp.Options{
			Include: s.headers,
			Defines: req.Defines,
			Memo:    s.memo,
		})
		parts = append(parts, name, pre.Fingerprint(name))
	}
	return rescache.KeyOf(fingerprint(opts), parts...)
}

// Submit validates and enqueues a job. It never blocks: a full queue fails
// fast with ErrQueueFull, a draining service with ErrClosed.
func (s *Service) Submit(req *Request, spec OptionsSpec) (*Job, error) {
	if len(req.Files) == 0 {
		return nil, ErrNoFiles
	}
	total := 0
	for name, src := range req.Files {
		total += len(name) + len(src)
	}
	if total > s.cfg.MaxSourceBytes {
		return nil, ErrTooLarge
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.nextID++
	j := &Job{
		id:        fmt.Sprintf("job-%08d", s.nextID),
		req:       req,
		opts:      spec.resolve(),
		done:      make(chan struct{}),
		state:     JobQueued,
		submitted: time.Now(),
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.met.count(&s.met.queueRejected)
		return nil, ErrQueueFull
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.pruneLocked()
	s.mu.Unlock()
	s.met.count(&s.met.jobsSubmitted)
	return j, nil
}

// pruneLocked forgets the oldest finished jobs beyond the retention bound.
// Caller holds s.mu.
func (s *Service) pruneLocked() {
	for len(s.order) > s.cfg.MaxJobs {
		pruned := false
		for i, id := range s.order {
			j := s.jobs[id]
			j.mu.Lock()
			terminal := j.state == JobDone || j.state == JobFailed || j.state == JobCanceled
			j.mu.Unlock()
			if terminal {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			return // everything retained is still live
		}
	}
}

// Job returns a submitted job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.run(j)
		case <-s.quit:
			// Drain: finish everything already queued, then exit.
			for {
				select {
				case j := <-s.queue:
					s.run(j)
				default:
					return
				}
			}
		}
	}
}

// run executes one job under the configured timeout.
func (s *Service) run(j *Job) {
	s.busy.Add(1)
	defer s.busy.Add(-1)

	start := time.Now()
	j.mu.Lock()
	j.state = JobRunning
	j.waitDur = start.Sub(j.submitted)
	j.mu.Unlock()
	s.met.stage("wait").observe(start.Sub(j.submitted))

	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	defer cancel()

	hashStart := time.Now()
	key := s.contentKey(j.req, j.opts)
	hashDur := time.Since(hashStart)
	s.met.stage("hash").observe(hashDur)

	// Each job gets its own tracer; the pipeline spans it records are folded
	// into the ofence_stage_duration_seconds histograms below. Cache hits and
	// deduplicated lookups skip the closure and contribute no stage samples.
	tracer := obs.New()
	tctx := obs.WithTracer(ctx, tracer)

	analyzeStart := time.Now()
	v, hit, err := s.cache.Do(key, func() (any, error) {
		return s.analyzeFn(tctx, j.req, j.opts)
	})
	analyzeDur := time.Since(analyzeStart)
	s.met.stage("analyze").observe(analyzeDur)
	for _, sp := range tracer.Spans() {
		if d, ok := sp.Elapsed(); ok {
			s.met.stageDuration(sp.Name()).observe(d)
		}
	}

	j.mu.Lock()
	j.hashDur = hashDur
	j.analyzeD = analyzeDur
	j.cacheHit = hit
	j.totalDur = time.Since(j.submitted)
	switch {
	case err == nil:
		j.state = JobDone
		j.result = v.(*ofence.ResultView)
		s.met.add(&s.met.inferredSemantics, uint64(len(j.result.Inferred)))
		for _, f := range j.result.Findings {
			s.met.confidence.observeValue(f.Confidence)
		}
	case errors.Is(err, context.Canceled):
		j.state = JobCanceled
		j.errMsg = err.Error()
	default:
		j.state = JobFailed
		j.errMsg = err.Error()
	}
	state := j.state
	total := j.totalDur
	j.mu.Unlock()
	s.met.stage("total").observe(total)
	switch state {
	case JobDone:
		s.met.count(&s.met.jobsDone)
	case JobCanceled:
		s.met.count(&s.met.jobsCanceled)
	default:
		s.met.count(&s.met.jobsFailed)
	}
	close(j.done)
}

// Close drains the service: no new submissions are accepted, queued and
// running jobs are finished, and the workers exit. If ctx expires first the
// base context is canceled — in-flight analyses abort at their next
// cancellation point and are marked canceled — and ctx's error is returned.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.quit)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelBase()
		<-done
		return ctx.Err()
	}
}

// CacheStats snapshots the result-cache counters.
func (s *Service) CacheStats() rescache.Stats { return s.cache.Stats() }

// QueueDepth returns the number of queued-but-unstarted jobs.
func (s *Service) QueueDepth() int { return len(s.queue) }

// BusyWorkers returns the number of workers currently running a job.
func (s *Service) BusyWorkers() int { return int(s.busy.Load()) }

// MetricsText renders every service metric in the Prometheus text
// exposition format.
func (s *Service) MetricsText() string {
	var b strings.Builder
	st := s.cache.Stats()
	util := 0.0
	if s.cfg.Workers > 0 {
		util = float64(s.busy.Load()) / float64(s.cfg.Workers)
	}
	s.met.render(&b, map[string]float64{
		"ofence_queue_depth":        float64(len(s.queue)),
		"ofence_workers":            float64(s.cfg.Workers),
		"ofence_workers_busy":       float64(s.busy.Load()),
		"ofence_worker_utilization": util,
		"ofence_cache_entries":      float64(st.Entries),
		"ofence_cache_hit_rate":     st.HitRate(),
		"ofence_warm_lineages":      float64(s.WarmLineages()),
	})
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"ofence_cache_hits_total", "Lookups served from the result cache", st.Hits},
		{"ofence_cache_misses_total", "Lookups that ran the analysis", st.Misses},
		{"ofence_cache_dedup_total", "Lookups that joined an identical in-flight analysis", st.Dedups},
		{"ofence_cache_evictions_total", "Entries dropped by the LRU bound", st.Evictions},
	} {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v)
	}
	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		backend := s.cfg.Store.Name()
		for _, c := range []struct {
			name, help string
			v          uint64
		}{
			{"ofence_store_gets_total", "Artifact-store lookups", ss.Gets},
			{"ofence_store_hits_total", "Artifact-store lookups that returned a blob", ss.Hits},
			{"ofence_store_puts_total", "Artifacts published to the store", ss.Puts},
			{"ofence_store_errors_total", "Swallowed artifact-store backend failures", ss.Errors},
		} {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s{backend=%q} %d\n",
				c.name, c.help, c.name, c.name, backend, c.v)
		}
		fmt.Fprintf(&b, "# HELP ofence_store_hit_ratio Fraction of store lookups that hit\n"+
			"# TYPE ofence_store_hit_ratio gauge\nofence_store_hit_ratio{backend=%q} %g\n",
			backend, ss.HitRatio())
	}
	return b.String()
}

// StageStats snapshots the service-wide per-file stage cache counters,
// keyed by stage name. Every project the service builds shares this family.
func (s *Service) StageStats() map[string]rescache.Stats { return s.stages.Stats() }
