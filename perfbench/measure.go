package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outcome is what one workload run measured.
type outcome struct {
	attempted int
	failed    int
	// values holds every metric measured, by name.
	values map[string]float64
	// workers records the Workers setting behind each metric.
	workers map[string]string
	// inputs records the provenance of the run's inputs.
	inputs []string
	// notes are extra report lines (fan-out shares, findings).
	notes []string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, workers: map[string]string{}}
}

func (o *outcome) set(name string, v float64, workers string) {
	o.values[name] = v
	o.workers[name] = workers
}

// op records one attempted op and whether it failed.
func (o *outcome) op(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// checked records one op verified by err == nil, noting a failure.
func (o *outcome) checked(what string, err error) {
	if err != nil {
		o.note("%s failed: %v", what, err)
	}
	o.op(err == nil)
}

func (o *outcome) input(format string, args ...any) {
	o.inputs = append(o.inputs, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample, which only a run whose
// every op failed can produce.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies collects op latencies split by the Workers setting.
type latencies struct {
	wn, w1 []float64
	// busy is the summed latency of every op; for a single closed-loop
	// client it is the timed wall time.
	busy time.Duration
}

func (l *latencies) add(d time.Duration, w1 bool) {
	if w1 {
		l.w1 = append(l.w1, ms(d))
	} else {
		l.wn = append(l.wn, ms(d))
	}
	l.busy += d
}

// report sets the latency metrics common to every workload; wall is the
// timed wall time the ops completed in.
func (l *latencies) report(o *outcome, wall time.Duration) {
	wn := strconv.Itoa(gomaxprocs())
	o.set("p50_ms", median(l.wn), wn)
	o.set("p90_ms", percentile(l.wn, 0.90), wn)
	o.set("p99_ms", percentile(l.wn, 0.99), wn)
	o.set("p50_w1_ms", median(l.w1), "1")
	o.set("req_per_s", float64(len(l.wn)+len(l.w1))/wall.Seconds(), bothWorkers())
	o.note("ops: %d at Workers=%s, %d at Workers=1", len(l.wn), wn, len(l.w1))
	if len(l.wn)+len(l.w1) <= 64 {
		o.note("latencies at Workers=%s (ms): %.1f", wn, l.wn)
		o.note("latencies at Workers=1 (ms): %.1f", l.w1)
	}
}

// bothWorkers names a metric taken over ops at both Workers settings.
func bothWorkers() string { return "1 and " + strconv.Itoa(gomaxprocs()) }

// heapSampler polls the live heap until stopped and keeps the peak.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMiB stops the sampler and returns the peak heap in MiB.
func (h *heapSampler) peakMiB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// gcSnap is a point-in-time reading of the runtime's GC counters.
type gcSnap struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	pauseNS         uint64
}

func readGC() gcSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcSnap{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
		pauseNS:    m.PauseTotalNs,
	}
}

// gcDelta is the GC work between two snapshots.
type gcDelta struct {
	cpuShare float64
	allocMiB float64
	pauseMS  float64
}

func (a gcSnap) to(b gcSnap) gcDelta {
	d := gcDelta{
		allocMiB: float64(b.allocBytes-a.allocBytes) / (1 << 20),
		pauseMS:  float64(b.pauseNS-a.pauseNS) / 1e6,
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.cpuShare = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// gcSamples accumulates per-op GC deltas and reports their medians.
type gcSamples struct{ share, alloc, pause []float64 }

func (g *gcSamples) add(d gcDelta) {
	g.share = append(g.share, d.cpuShare)
	g.alloc = append(g.alloc, d.allocMiB)
	g.pause = append(g.pause, d.pauseMS)
}

func (g *gcSamples) report(o *outcome) {
	o.set("gc.cpu_share", median(g.share), "1")
	o.set("gc.alloc_mb", median(g.alloc), "1")
	o.set("gc.pause_ms", median(g.pause), "1")
}

// samples is a named set of per-op layer samples reported as medians.
type samples struct{ m map[string][]float64 }

func newSamples() *samples { return &samples{m: map[string][]float64{}} }

func (s *samples) add(name string, v float64) { s.m[name] = append(s.m[name], v) }

// report sets the median of every sample set, attributed to workers.
func (s *samples) report(o *outcome, workers func(name string) string) {
	for name, xs := range s.m {
		o.set(name, median(xs), workers(name))
	}
}

// finishLayers derives the attribution metrics and lists the layers whose
// Workers=GOMAXPROCS time exceeds their Workers=1 time.
func finishLayers(o *outcome, opW1, tracedW1 float64) {
	sum := 0.0
	for _, name := range layerSums {
		sum += o.values[name]
	}
	o.set("unattributed_ms", opW1-sum, "1")
	o.set("trace_overhead_pct", (tracedW1-opW1)/opW1*100, "1")
	o.note("untraced op at Workers=1: %.3f ms; traced: %.3f ms; layers sum to %.3f ms", opW1, tracedW1, sum)
	for _, p := range wnPairs {
		w1, wn := o.values[p[0]], o.values[p[1]]
		if wn > w1 && w1 > 0 {
			o.note("finding: %s %.3f ms > %s %.3f ms at GOMAXPROCS=%d", p[1], wn, p[0], w1, runtime.GOMAXPROCS(0))
		}
	}
}

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReport writes the human-readable report: environment, inputs, and
// one table row per metric with its unit and Workers setting.
func printReport(w io.Writer, cfg config, o *outcome) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d cpu=%q go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	for _, in := range o.inputs {
		fmt.Fprintf(w, "input: %s\n", in)
	}
	ratio := 0.0
	if o.attempted > 0 {
		ratio = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "ops: attempted=%d failed=%d failed_ratio=%g\n", o.attempted, o.failed, ratio)
	section := func(title string, layer bool) {
		fmt.Fprintf(w, "%s\n", title)
		fmt.Fprintf(w, "  %-28s %14s  %-7s %-10s %s\n", "metric", "value", "unit", "workers", "should move")
		for _, d := range metricDefs {
			v, ok := o.values[d.name]
			if d.layer != layer || !ok {
				continue
			}
			fmt.Fprintf(w, "  %-28s %14.4f  %-7s %-10s %s\n", d.name, v, d.unit, o.workers[d.name], d.moves)
		}
	}
	if cfg.trace {
		section("end-to-end (untraced ops in this traced run):", false)
		section("per-layer:", true)
	} else {
		section("end-to-end:", false)
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}
