package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ofence/internal/corpus"
	"ofence/internal/kernelhdr"
	"ofence/internal/ofence"
	"ofence/internal/service"
)

// requestFiles is the number of consecutive corpus files per serve-mix
// request.
const requestFiles = 16

// historyLen is how many of its own past requests a serve-mix client may
// repeat or edit.
const historyLen = 32

// sortedNames returns the keys of m in order.
func sortedNames(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// maxClients caps the closed-loop clients so that every client's last
// historyLen requests fit the service's default result cache (256).
const maxClients = 4

// httpSystem is a handler served on a loopback listener.
type httpSystem struct {
	base   string
	srv    *http.Server
	served chan error
	client *http.Client
}

func serveHTTP(h http.Handler) (*httpSystem, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	hs := &httpSystem{
		base:   "http://" + ln.Addr().String(),
		srv:    &http.Server{Handler: h},
		served: make(chan error, 1),
		// The timeout bounds a request well past the service's 30 s job
		// limit, so a stuck system fails the run instead of hanging it.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}, Timeout: 60 * time.Second},
	}
	go func() { hs.served <- hs.srv.Serve(ln) }()
	return hs, nil
}

// close stops the server and waits for it to exit.
func (hs *httpSystem) close(ctx context.Context) error {
	hs.client.CloseIdleConnections()
	err := hs.srv.Shutdown(ctx)
	if serr := <-hs.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// ready polls /healthz until the server answers 200.
func (hs *httpSystem) ready(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	for {
		resp, err := hs.client.Get(hs.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// readyTimeout bounds how long a starting system may take to answer.
const readyTimeout = 30 * time.Second

// analyzeBody is the POST /v1/analyze request of the service and the
// fleet coordinator.
type analyzeBody struct {
	Files   map[string]string   `json:"files"`
	Options service.OptionsSpec `json:"options"`
}

// jobReply is the part of a job reply the benchmark reads; Result keeps
// the bytes as served.
type jobReply struct {
	State     string          `json:"state"`
	CacheHit  bool            `json:"cache_hit"`
	Error     string          `json:"error"`
	Result    json.RawMessage `json:"result"`
	WaitMS    float64         `json:"wait_ms"`
	HashMS    float64         `json:"hash_ms"`
	AnalyzeMS float64         `json:"analyze_ms"`
	TotalMS   float64         `json:"total_ms"`
}

// analyze posts one request and waits for the reply; it returns the
// client round trip.
func (hs *httpSystem) analyze(ctx context.Context, body []byte) (*jobReply, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.base+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := hs.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("POST /v1/analyze: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var r jobReply
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, lat, fmt.Errorf("decode reply: %w", err)
	}
	if r.State != "done" {
		return &r, lat, fmt.Errorf("job %s: %s", r.State, r.Error)
	}
	return &r, lat, nil
}

// metric reads one counter from the /metrics text.
func (hs *httpSystem) metric(name string) (float64, error) {
	resp, err := hs.client.Get(hs.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

func (r *jobReply) view() (*ofence.ResultView, error) {
	var v ofence.ResultView
	if err := json.Unmarshal(r.Result, &v); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	return &v, nil
}

// serveSystem is a running service behind its HTTP handler.
type serveSystem struct {
	svc *service.Service
	*httpSystem
}

func startService(ctx context.Context) (*serveSystem, error) {
	svc := service.New(service.Config{})
	hs, err := serveHTTP(svc.Handler())
	if err != nil {
		svc.Close(ctx)
		return nil, err
	}
	s := &serveSystem{svc: svc, httpSystem: hs}
	if err := hs.ready(ctx); err != nil {
		s.stop(ctx)
		return nil, err
	}
	return s, nil
}

func (s *serveSystem) stop(ctx context.Context) error {
	err := s.close(ctx)
	if cerr := s.svc.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// sent is one answered request a client may repeat or edit.
type sent struct {
	files  map[string]string
	result []byte
}

// mixSample is one completed serve-mix request.
type mixSample struct {
	lat   time.Duration
	w1    bool
	edit  bool
	reply *jobReply
}

// mixClient is one closed-loop serve-mix client.
type mixClient struct {
	id      int
	rng     *rand.Rand
	c       *corpus.Corpus
	windows [][]string
	devs    []deviation
	history []sent
}

// next builds the client's n-th request: 40 % new (a unique declaration
// appended to every file of a corpus window), 30 % an exact repeat of a
// recent request, 30 % a recent request with one file edited.
func (mc *mixClient) next(n int) (files map[string]string, repeat *sent, edit bool) {
	draw := mc.rng.Intn(10)
	if len(mc.history) == 0 || draw < 4 {
		win := mc.windows[mc.rng.Intn(len(mc.windows))]
		files = make(map[string]string, len(win))
		for _, name := range win {
			files[name] = fmt.Sprintf("%s\nint perfbench_new_%d_%d;\n", mc.c.Files[name], mc.id, n)
		}
		return files, nil, false
	}
	h := &mc.history[mc.rng.Intn(len(mc.history))]
	if draw < 7 {
		return h.files, h, false
	}
	files = make(map[string]string, len(h.files))
	for k, v := range h.files {
		files[k] = v
	}
	names := sortedNames(files)
	name := names[mc.rng.Intn(len(names))]
	files[name] += fmt.Sprintf("\nint perfbench_edit_%d_%d;\n", mc.id, n)
	return files, nil, true
}

// run sends requests until the deadline and returns the completed ones.
func (mc *mixClient) run(ctx context.Context, hs *httpSystem, deadline time.Time, o *outcome, mu *sync.Mutex) []mixSample {
	var out []mixSample
	for n := 0; time.Now().Before(deadline); n++ {
		w1 := n%2 == 1
		files, repeat, edit := mc.next(n)
		spec := service.OptionsSpec{}
		if w1 {
			spec.Workers = 1
		}
		// A map of strings and the options spec always encode.
		body, _ := json.Marshal(analyzeBody{Files: files, Options: spec})
		r, lat, err := hs.analyze(ctx, body)
		answered := err == nil
		if answered {
			err = mc.check(r, files, repeat)
		}
		mu.Lock()
		if err != nil {
			o.note("client %d request %d failed: %v", mc.id, n, err)
		}
		o.op(err == nil)
		mu.Unlock()
		if answered {
			out = append(out, mixSample{lat: lat, w1: w1, edit: edit, reply: r})
		}
		if err == nil && repeat == nil {
			mc.history = append(mc.history, sent{files: files, result: r.Result})
			if len(mc.history) > historyLen {
				mc.history = mc.history[1:]
			}
		}
	}
	return out
}

// check verifies one reply: a repeat must be a cache hit with the first
// answer's bytes; any other request must report every deviation inside it.
func (mc *mixClient) check(r *jobReply, files map[string]string, repeat *sent) error {
	if repeat != nil {
		if !r.CacheHit {
			return fmt.Errorf("repeated request was not a cache hit")
		}
		if !bytes.Equal(r.Result, repeat.result) {
			return fmt.Errorf("repeated request's result differs from the first answer")
		}
		return nil
	}
	v, err := r.view()
	if err != nil {
		return err
	}
	return checkDeviations(v, mc.devs, files)
}

// firstAnswer posts one warm-up request, the first requestFiles files of
// c, and checks the reply; a system has finished its set-up once it has
// answered.
func firstAnswer(ctx context.Context, hs *httpSystem, c *corpus.Corpus, devs []deviation, o *outcome) error {
	files := map[string]string{}
	for _, name := range c.Order[:min(requestFiles, len(c.Order))] {
		files[name] = c.Files[name] + "\nint perfbench_warmup;\n"
	}
	// A map of strings always encodes.
	body, _ := json.Marshal(analyzeBody{Files: files})
	r, _, err := hs.analyze(ctx, body)
	if err != nil {
		return fmt.Errorf("warm-up request: %w", err)
	}
	v, err := r.view()
	if err == nil {
		err = checkDeviations(v, devs, files)
	}
	o.checked("warm-up request", err)
	return nil
}

// serveInput is the seeded flat corpus serve-mix draws requests from.
type serveInput struct {
	c       *corpus.Corpus
	windows [][]string
	devs    []deviation
}

func loadServeInput(cfg config, o *outcome) *serveInput {
	c := corpus.Generate(corpus.DefaultConfig(cfg.seed))
	in := &serveInput{c: c, devs: corpusDeviations(c, cfg.corrupt)}
	// Windows start at multiples of requestFiles, so the lineages fit the
	// service's default 32 warm projects.
	for s := 0; s+requestFiles <= len(c.Order); s += requestFiles {
		in.windows = append(in.windows, c.Order[s:s+requestFiles])
	}
	o.input("flat corpus seed=%d files=%d patterns=%d deviations=%d (ofence-corpus -seed %d)",
		cfg.seed, len(c.Order), len(c.Truths), len(in.devs), cfg.seed)
	return in
}

func clientCount() int { return min(gomaxprocs(), maxClients) }

// runMix drives the mix with every client until the deadline.
func runMix(ctx context.Context, cfg config, in *serveInput, hs *httpSystem, o *outcome, d time.Duration) ([]mixSample, time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	results := make([][]mixSample, clientCount())
	start := time.Now()
	deadline := start.Add(d)
	for i := range results {
		mc := &mixClient{
			id:      i,
			rng:     rand.New(rand.NewSource(cfg.seed*1000 + int64(i))),
			c:       in.c,
			windows: in.windows,
			devs:    in.devs,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = mc.run(ctx, hs, deadline, o, &mu)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []mixSample
	for _, r := range results {
		all = append(all, r...)
	}
	return all, wall
}

// runServeMix measures the ofence-serve HTTP handler under a closed-loop
// request mix.
func runServeMix(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	in := loadServeInput(cfg, o)
	o.input("service defaults (depth 0), %d closed-loop clients, client seeds %d*1000+i; requests alternate Workers=%d and 1",
		clientCount(), cfg.seed, gomaxprocs())
	var sys *serveSystem
	// Set-up is a cold start up to the first answer: the service starts
	// and answers one new request.
	start := func() error {
		var err error
		if sys, err = startService(ctx); err != nil {
			return err
		}
		return firstAnswer(ctx, sys.httpSystem, in.c, in.devs, o)
	}
	var err error
	if cfg.trace {
		err = start()
	} else {
		err = measureSetup(o, cfg.setupReps, start, func() error { return sys.stop(ctx) })
	}
	if err != nil {
		return nil, err
	}

	window := cfg.seconds
	if cfg.trace {
		window /= 2
	}
	cache0 := sys.svc.CacheStats()
	reused0, err := sys.metric("ofence_files_reused_total")
	if err != nil {
		sys.stop(ctx)
		return nil, err
	}
	hsamp := startHeapSampler()
	all, wall := runMix(ctx, cfg, in, sys.httpSystem, o, window)
	peak := hsamp.peakMiB()
	reused1, err := sys.metric("ofence_files_reused_total")
	cache1 := sys.svc.CacheStats()
	if serr := sys.stop(ctx); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("no request completed")
	}

	if !cfg.trace {
		var lat latencies
		for _, s := range all {
			lat.add(s.lat, s.w1)
		}
		o.set("peak_heap_mb", peak, bothWorkers())
		lat.report(o, wall)
		return o, nil
	}

	s := newSamples()
	edits := 0
	for _, m := range all {
		s.add("service.wait_ms", m.reply.WaitMS)
		s.add("service.hash_ms", m.reply.HashMS)
		s.add("service.analyze_ms", m.reply.AnalyzeMS)
		s.add("service.http_ms", ms(m.lat)-m.reply.TotalMS)
		if m.edit {
			edits++
		}
	}
	hits := cache1.Hits - cache0.Hits
	o.set("rescache.result_hit_ratio", ratio(float64(hits), float64(hits+cache1.Misses-cache0.Misses)), bothWorkers())
	o.set("service.lineage_reuse_ratio", ratio(reused1-reused0, float64(edits*requestFiles)), bothWorkers())
	s.report(o, func(string) string { return bothWorkers() })
	o.note("traced mix: %d requests, %d edits", len(all), edits)

	// The layers of a new request: its files analyzed as the service does,
	// one entry point at a time.
	rng := rand.New(rand.NewSource(cfg.seed))
	n := 0
	windowSet := func() fileSet {
		win := in.windows[rng.Intn(len(in.windows))]
		srcs := make([]ofence.SourceFile, len(win))
		for i, name := range win {
			srcs[i] = ofence.SourceFile{Name: name, Src: fmt.Sprintf("%s\nint perfbench_layer_%d;\n", in.c.Files[name], n)}
		}
		n++
		fs := flatFileSet(srcs)
		fs.check = func(v *ofence.ResultView) error { return checkDeviations(v, in.devs, windowFiles(win)) }
		return fs
	}
	notOnPath(o, fleetLayers...)
	notOnPath(o, "rescache.stage_hit_ratio")
	return o, profileSets(ctx, cfg.seconds-window, o, windowSet, false)
}

// windowFiles is the set of file names of a corpus window.
func windowFiles(win []string) map[string]string {
	m := make(map[string]string, len(win))
	for _, name := range win {
		m[name] = ""
	}
	return m
}

// flatFileSet is a depth-0 analysis of flat-corpus files with the bundled
// kernel headers, as the service and the fleet workers run it.
func flatFileSet(srcs []ofence.SourceFile) fileSet {
	return fileSet{
		srcs:    srcs,
		headers: kernelhdr.Headers(),
		project: func() *ofence.Project {
			p := ofence.NewProject()
			kernelhdr.Register(p)
			return p
		},
	}
}
