package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// smallConfig runs a workload briefly on a small tree.
func smallConfig(workload string, trace bool) config {
	return config{
		workload:  workload,
		seed:      7,
		seconds:   300 * time.Millisecond,
		trace:     trace,
		treeFiles: 48,
		setupReps: 2,
	}
}

// lastLine runs cfg and decodes the result line.
func lastLine(t *testing.T, cfg config) (result, string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), cfg, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return res, out.String()
}

// TestEveryMetricEmitted runs every workload untraced and traced and checks
// the result carries exactly the metrics of its kind, each with its unit,
// and that every op passed its checks.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range []string{"tree-cold", "tree-edit", "serve-mix", "fleet-job"} {
		for _, trace := range []bool{false, true} {
			cfg := smallConfig(w, trace)
			res, out := lastLine(t, cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					w, trace, res.Correct, res.Attempted, res.Failed, out)
			}
			want := 0
			for _, d := range metricDefs {
				if d.layer != trace {
					continue
				}
				want++
				m, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s trace=%t: metric %s missing", w, trace, d.name)
				} else if m.Unit != d.unit {
					t.Errorf("%s trace=%t: %s unit %q, want %q", w, trace, d.name, m.Unit, d.unit)
				}
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%t: %d metrics, want %d", w, trace, len(res.Metrics), want)
			}
		}
	}
}

// TestCorruptedExpectationFails plants a wrong ground-truth label and
// checks that the ops it affects are counted as failed, not passed.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, w := range []string{"tree-cold", "tree-edit", "serve-mix", "fleet-job"} {
		cfg := smallConfig(w, false)
		cfg.corrupt = true
		if w == "serve-mix" {
			// Requests cover a sixteenth of the corpus each, so give the
			// mix time to reach the window holding the corrupted label.
			cfg.seconds = 2 * time.Second
		}
		res, out := lastLine(t, cfg)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted expectation passed: correct=%t failed=%d\n%s", w, res.Correct, res.Failed, out)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// this program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []entry
	for _, d := range metricDefs {
		e := entry{Name: d.name, Unit: d.unit, Better: d.better}
		if d.layer {
			layers = append(layers, e)
		} else {
			e2e = append(e2e, e)
		}
	}
	check := func(kind string, got, want []entry) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2e)
	check("per_layer", b.PerLayer, layers)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
	}
}
