package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload to a few seconds of work while keeping its
// shape: the same fleet kind, forecaster, observers and read mix.
func tiny(t *testing.T, name string) runConfig {
	t.Helper()
	sp, err := lookupSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	sp.trials, sp.windows = 1, 2
	if sp.strait {
		sp.vessels, sp.warmup = 12, time.Minute
	} else {
		sp.vessels, sp.warmup = 40, 3*time.Minute
		sp.rate = 300
	}
	return runConfig{spec: sp, seed: 7, seconds: 0.6}
}

func TestWorkloadsPassOutputCheck(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := run(tiny(t, w.name), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			r := out.result
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("result %+v, problems %v", r, out.trials[0].Problems)
			}
			for name, m := range r.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
			if out.trials[0].Forecasts == 0 {
				t.Error("no forecasts")
			}
		})
	}
}

func TestWithheldReportFailsCheck(t *testing.T) {
	for _, name := range []string{"replay-europe", "live-europe"} {
		t.Run(name, func(t *testing.T) {
			cfg := tiny(t, name)
			cfg.withhold = 3
			out, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if out.result.Correct || out.result.Failed == 0 {
				t.Fatalf("withheld report passed the check: %+v", out.result)
			}
			if p := strings.Join(out.trials[0].Problems, "; "); !strings.Contains(p, "lost reports") {
				t.Errorf("problems %q do not name the lost report", p)
			}
		})
	}
}

// TestMetricNamesMatchBenchmarkJSON runs a traced tiny trial and checks
// the result lines carry exactly the metrics BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(declared, ",") {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}

	cfg := tiny(t, "live-strait")
	cfg.trace = true
	out, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got metricSet, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: %s [%s], BENCHMARK.json declares %s [%s]", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", out.e2e[:len(gatedMetrics)], decl.EndToEnd)
	same("per_layer", out.layers, decl.PerLayer)
	if len(out.result.Metrics) != len(decl.PerLayer) {
		t.Errorf("result line has %d metrics, BENCHMARK.json declares %d per-layer", len(out.result.Metrics), len(decl.PerLayer))
	}
}
