package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"ofence/internal/corpus"
	"ofence/internal/fleet"
	"ofence/internal/ofence"
	"ofence/internal/service"
)

// fleetSystem is a coordinator at default config behind its HTTP handler,
// with in-process workers speaking the full wire protocol.
type fleetSystem struct {
	coord *fleet.Coordinator
	*httpSystem
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startFleet(ctx context.Context, workers int) (*fleetSystem, error) {
	coord := fleet.NewCoordinator(fleet.Config{})
	hs, err := serveHTTP(coord.Handler())
	if err != nil {
		coord.Close(ctx)
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	fs := &fleetSystem{coord: coord, httpSystem: hs, cancel: cancel}
	for i := 0; i < workers; i++ {
		w := fleet.NewInProcessWorker(coord, fmt.Sprintf("perfbench-%d", i))
		fs.wg.Add(1)
		go func() {
			defer fs.wg.Done()
			w.Run(wctx)
		}()
	}
	// Ready means the handler answers and every worker has registered.
	err = hs.ready(ctx)
	registered := time.After(readyTimeout)
	for err == nil && coord.WorkersAlive() < workers {
		select {
		case <-registered:
			err = fmt.Errorf("%d of %d workers registered", coord.WorkersAlive(), workers)
		case <-time.After(time.Millisecond):
		}
	}
	if err != nil {
		fs.stop(ctx)
		return nil, err
	}
	return fs, nil
}

// stop stops the workers, waits for them, then stops the coordinator.
func (fs *fleetSystem) stop(ctx context.Context) error {
	fs.cancel()
	fs.wg.Wait()
	err := fs.close(ctx)
	if cerr := fs.coord.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// fleetJob is one generated job: a default flat corpus and its injected
// deviations.
type fleetJob struct {
	seed int64
	c    *corpus.Corpus
	body []byte
	devs []deviation
}

func newFleetJob(cfg config, i int, workers int) fleetJob {
	seed := cfg.seed*1000 + int64(i)
	c := corpus.Generate(corpus.DefaultConfig(seed))
	spec := service.OptionsSpec{}
	if workers == 1 {
		spec.Workers = 1
	}
	// A map of strings and the options spec always encode.
	body, _ := json.Marshal(analyzeBody{Files: c.Files, Options: spec})
	return fleetJob{seed: seed, c: c, body: body, devs: corpusDeviations(c, cfg.corrupt)}
}

// runFleetJob measures jobs submitted one at a time through a fleet
// coordinator's /v1/analyze.
func runFleetJob(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	nw := gomaxprocs()
	o.input("jobs: default flat corpus per job, corpus seed = %d*1000 + job index; coordinator defaults, %d in-process workers, one client",
		cfg.seed, nw)
	o.input("job analyses (depth 0) alternate Workers=%d and 1", nw)
	var sys *fleetSystem
	// Set-up is a cold start up to the first answer: the coordinator and
	// its workers start, and the fleet answers one small job (a window of
	// the first job's corpus), which waits for the workers' idle poll.
	warm := newFleetJob(cfg, 0, nw)
	start := func() error {
		var err error
		if sys, err = startFleet(ctx, nw); err != nil {
			return err
		}
		return firstAnswer(ctx, sys.httpSystem, warm.c, warm.devs, o)
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
	var lat latencies
	s := newSamples()
	store0 := sys.coord.Store().Stats()
	redis0 := sys.coord.Redispatches()
	var seeds []int64
	hsamp := startHeapSampler()
	deadline := time.Now().Add(window)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		w1 := i%2 == 1
		workers := nw
		if w1 {
			workers = 1
		}
		job := newFleetJob(cfg, i, workers)
		seeds = append(seeds, job.seed)
		tasks0 := sys.coord.TasksDispatched()
		r, d, err := sys.analyze(ctx, job.body)
		answered := err == nil
		if answered {
			err = checkFleetReply(r, job)
		}
		if err != nil {
			o.note("job %d failed: %v", i, err)
		}
		o.op(err == nil)
		if !answered {
			continue
		}
		lat.add(d, w1)
		s.add("fleet.wait_ms", r.WaitMS)
		s.add("fleet.run_ms", r.TotalMS-r.WaitMS)
		s.add("fleet.tasks", float64(sys.coord.TasksDispatched()-tasks0))
	}
	peak := hsamp.peakMiB()
	store1 := sys.coord.Store().Stats()
	redis := sys.coord.Redispatches() - redis0
	if err := sys.stop(ctx); err != nil {
		return nil, err
	}
	o.input("job corpus seeds: %v", seeds)
	if !cfg.trace {
		o.set("peak_heap_mb", peak, bothWorkers())
		lat.report(o, lat.busy)
		return o, nil
	}

	s.report(o, func(string) string { return bothWorkers() })
	o.set("fleet.redispatches", float64(redis), bothWorkers())
	o.set("fleet.store_hit_ratio", ratio(float64(store1.Hits-store0.Hits), float64(store1.Gets-store0.Gets)), bothWorkers())
	notOnPath(o, serviceLayers...)
	notOnPath(o, "rescache.stage_hit_ratio", "rescache.result_hit_ratio")
	// The layers of one job: its corpus analyzed as a worker does, one
	// entry point at a time.
	next := len(seeds)
	return o, profileSets(ctx, cfg.seconds-window, o, func() fileSet {
		job := newFleetJob(cfg, next, nw)
		next++
		fs := flatFileSet(job.c.Sources())
		fs.check = func(v *ofence.ResultView) error { return checkDeviations(v, job.devs, nil) }
		return fs
	}, false)
}

// checkFleetReply verifies a finished job found every injected deviation
// of its corpus.
func checkFleetReply(r *jobReply, job fleetJob) error {
	v, err := r.view()
	if err != nil {
		return err
	}
	return checkDeviations(v, job.devs, nil)
}
