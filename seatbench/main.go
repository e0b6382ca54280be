// Command seatbench is seatwin's benchmark. It runs one named workload
// against the in-process system, configured as cmd/seatwin runs it by
// default, prints every end-to-end metric with its unit, checks the
// system's outputs and ends with one JSON result line:
//
//	seatbench --workload replay-europe|live-europe|live-strait
//	          --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// A run sets up several fresh systems (trials), each in a process of
// its own, from the same seeded inputs, and measures several timed
// windows on each; --seconds is split between all windows. With
// --trace 1 the untraced trials are followed by traced ones, whose
// per-layer metrics are reported instead, together with
// trace.overhead_frac; their spans are written under --trace-dir. See
// NOTES.md for the workloads, the metrics and how to read them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "replay-europe | live-europe | live-strait")
		seed     = flag.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds  = flag.Float64("seconds", 10, "measured time, split between every window of every trial")
		traceOn  = flag.Int("trace", 0, "1 = add traced trials and report per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/traces", "where --trace 1 writes its spans")
		child    = flag.String("trial", "", "internal: run one trial in this process (plain|traced) and print its record")
	)
	flag.Parse()
	sp, err := lookupSpec(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seatbench:", err)
		os.Exit(2)
	}
	cfg := runConfig{spec: sp, seed: *seed, seconds: *seconds, trace: *traceOn == 1, traceDir: *traceDir, subprocess: true}
	if *child != "" {
		rec, err := measureTrial(cfg, *child == "traced")
		if err != nil {
			fmt.Fprintln(os.Stderr, "seatbench: trial:", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
			fmt.Fprintln(os.Stderr, "seatbench: trial:", err)
			os.Exit(1)
		}
		return
	}
	out, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seatbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seatbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.result.Correct {
		os.Exit(1)
	}
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (ms metricSet) values() map[string]metricValue {
	out := make(map[string]metricValue, len(ms))
	for _, m := range ms {
		out[m.name] = metricValue{m.value, m.unit}
	}
	return out
}

// trialRecord is what one trial reports to the run.
type trialRecord struct {
	Traced       bool
	InputSetupS  float64 // input generation, S-VRF training included
	TrainS       float64
	SetupS       float64 // system set-up and warm-up
	Windows      []windowRecord
	Forecasts    int64
	EventsLogged int64
	Attempted    int
	Failed       int
	Problems     []string
	TracePath    string `json:",omitempty"`
}

// windowRecord is one timed window of a trial.
type windowRecord struct {
	ElapsedS, CPUS   float64
	Positions        int
	RSSPeak          int64
	FeedLat, APILat  []float64 // ms
	EventLat, ReadMS []float64 // ms
	Events           [2]int
	Layers           *layerAcc `json:",omitempty"`
}

// measureTrial generates the inputs and runs one trial on them.
func measureTrial(cfg runConfig, traced bool) (*trialRecord, error) {
	sp := cfg.spec
	start := time.Now()
	in, err := generate(sp, cfg.seed, cfg.windowDur())
	if err != nil {
		return nil, err
	}
	inputSetup := time.Since(start)
	var tr *tracer
	if traced {
		// Room for each line's send, decode and produce spans plus a poll
		// and an ingest span when it is polled alone, a forecast per
		// position and a span per read; spans beyond it are counted.
		n := 1 << 16
		for _, w := range in.windows {
			n += 6*len(w.lines) + 2*w.positions + len(w.reads)
		}
		tr = newTracer(n)
	}
	t, err := runTrial(cfg, in, tr)
	if err != nil {
		return nil, err
	}
	rec := &trialRecord{
		Traced: traced, InputSetupS: inputSetup.Seconds(), TrainS: in.trainDur.Seconds(),
		SetupS: t.setup.Seconds(), Forecasts: t.forecasts, EventsLogged: t.eventsLogged,
		Attempted: t.attempted, Failed: t.failed, Problems: t.problems,
	}
	for _, w := range t.windows {
		wr := windowRecord{
			ElapsedS: w.elapsed.Seconds(), CPUS: w.cpu.Seconds(), Positions: w.positions, RSSPeak: w.rssPeak,
			FeedLat: w.feed.fresh.lat, APILat: w.view.fresh.lat, EventLat: w.feed.evLat, Events: w.feed.events,
		}
		for _, l := range w.reads.fromDue {
			wr.ReadMS = append(wr.ReadMS, l...)
		}
		if w.layer != nil {
			acc := newLayerAcc(w)
			wr.Layers = &acc
		}
		rec.Windows = append(rec.Windows, wr)
	}
	if traced && cfg.traceDir != "" {
		if rec.TracePath, err = writeTrace(cfg.traceDir, sp.name, cfg.seed, tr); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// trial runs one trial, in a child process of its own unless the run is
// in-process (tests): a fresh process per trial keeps one trial's heap,
// garbage and goroutines out of the next one's measurements.
func (cfg runConfig) trial(traced bool) (*trialRecord, error) {
	if !cfg.subprocess {
		return measureTrial(cfg, traced)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	mode := "plain"
	if traced {
		mode = "traced"
	}
	cmd := exec.Command(exe, "--workload", cfg.spec.name, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace-dir", cfg.traceDir, "--trial", mode)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("trial process: %w", err)
	}
	rec := &trialRecord{}
	if err := json.Unmarshal(stdout.Bytes(), rec); err != nil {
		return nil, fmt.Errorf("trial process output: %w", err)
	}
	return rec, nil
}

type runOutput struct {
	result result
	// e2e and layers hold every metric computed, whichever the result
	// line reports.
	e2e, layers metricSet
	trials      []*trialRecord
}

// run executes one benchmark invocation, logging progress to w.
func run(cfg runConfig, w io.Writer) (*runOutput, error) {
	sp := cfg.spec
	envJSON, _ := json.Marshal(currentEnv())
	fmt.Fprintf(w, "seatbench: workload=%s seed=%d seconds=%g trace=%v env=%s\n",
		sp.name, cfg.seed, cfg.seconds, cfg.trace, envJSON)
	out := &runOutput{}
	passes := []bool{false}
	if cfg.trace {
		passes = append(passes, true)
	}
	var plain, traced []*trialRecord
	for _, tracedPass := range passes {
		for i := 0; i < sp.trials; i++ {
			t, err := cfg.trial(tracedPass)
			if err != nil {
				return nil, fmt.Errorf("trial %d: %w", i+1, err)
			}
			logTrial(w, i+1, t)
			if tracedPass {
				traced = append(traced, t)
			} else {
				plain = append(plain, t)
			}
		}
	}
	out.trials = append(plain, traced...)

	out.e2e = endToEnd(plain)
	for _, m := range out.e2e {
		fmt.Fprintf(w, "metric %s = %.4f %s\n", m.name, m.value, m.unit)
	}
	logDistributions(w, plain)
	r := result{Correct: true, Metrics: out.e2e[:len(gatedMetrics)].values()}
	for _, t := range out.trials {
		r.Attempted += t.Attempted
		r.Failed += t.Failed
	}
	if cfg.trace {
		var acc layerAcc
		for _, t := range traced {
			for _, win := range t.Windows {
				acc.merge(*win.Layers)
			}
		}
		overhead := ratio(endToEnd(traced)[2].value, out.e2e[2].value) - 1 // cpu_ms_per_kreport
		out.layers = append(acc.metrics(traced[0].TrainS, overhead), out.e2e[len(gatedMetrics):]...)
		for _, m := range out.layers {
			fmt.Fprintf(w, "layer %s = %.4f %s\n", m.name, m.value, m.unit)
		}
		r.Metrics = out.layers.values()
	}
	if r.Failed > 0 {
		r.Correct = false
	}
	fmt.Fprintf(w, "check: %d attempted, %d failed\n", r.Attempted, r.Failed)
	out.result = r
	return out, nil
}

// logDistributions prints the latency distributions behind the
// percentile metrics, pooled over every window, with their sample
// counts.
func logDistributions(w io.Writer, trials []*trialRecord) {
	for _, d := range []struct {
		name string
		get  func(windowRecord) []float64
	}{
		{"freshness_feed", func(w windowRecord) []float64 { return w.FeedLat }},
		{"freshness_api", func(w windowRecord) []float64 { return w.APILat }},
		{"event_latency", func(w windowRecord) []float64 { return w.EventLat }},
		{"read", func(w windowRecord) []float64 { return w.ReadMS }},
	} {
		xs := pooled(trials, d.get)
		if len(xs) == 0 {
			continue
		}
		fmt.Fprintf(w, "distribution %s: n=%d p50=%.3f p90=%.3f p95=%.3f p99=%.3f max=%.3f ms\n", d.name, len(xs),
			percentile(xs, 50), percentile(xs, 90), percentile(xs, 95), percentile(xs, 99), percentile(xs, 100))
	}
}

func logTrial(w io.Writer, n int, t *trialRecord) {
	kind := "trial"
	if t.Traced {
		kind = "traced trial"
	}
	fmt.Fprintf(w, "%s %d: setup %.3f s (inputs %.3f s); forecasts %d, events %d\n",
		kind, n, t.SetupS, t.InputSetupS, t.Forecasts, t.EventsLogged)
	for i, wr := range t.Windows {
		fmt.Fprintf(w, "  window %d: %.3f s for %d positions, cpu %.3f s, rss peak %.1f MiB, feed p50 %.3f ms, api p50 %.1f ms; feed events: %d proximity, %d collision\n",
			i+1, wr.ElapsedS, wr.Positions, wr.CPUS, float64(wr.RSSPeak)/(1<<20),
			percentile(wr.FeedLat, 50), percentile(wr.APILat, 50), wr.Events[0], wr.Events[1])
	}
	for _, p := range t.Problems {
		fmt.Fprintf(w, "  FAIL: %s\n", p)
	}
	if t.TracePath != "" {
		fmt.Fprintf(w, "  spans written to %s\n", t.TracePath)
	}
}

// gatedMetrics are the end-to-end metrics of BENCHMARK.json, in order:
// the ones that apply to every workload and repeat within their bound
// on a small shared machine (see NOTES.md).
var gatedMetrics = []string{
	"setup_s", "reports_per_s", "cpu_ms_per_kreport", "rss_peak_mb",
	"freshness_feed_p50_ms", "freshness_api_p50_ms", "freshness_api_p99_ms",
}

// endToEnd computes the end-to-end metrics over trials. Set-up is the
// median over trials; throughput, CPU and memory are the median over
// windows, so one window slowed by the machine does not move them.
// Freshness medians pool every window's samples, since one window holds
// few; freshness tails are the median over windows of each window's
// percentile, since a pooled tail is set by the slowest window. The
// gated metrics come first. Then follow the ones that are not gated:
// the feed's freshness tail, which does not repeat on live-strait, and
// the workload-specific latencies (event latency on the strait, reads
// on live-europe), pooled.
func endToEnd(trials []*trialRecord) metricSet {
	var setups, rps, cpu, rss []float64
	var feed90, feed99, api99 []float64
	for _, t := range trials {
		setups = append(setups, t.InputSetupS+t.SetupS)
		for _, w := range t.Windows {
			rps = append(rps, float64(w.Positions)/w.ElapsedS)
			cpu = append(cpu, w.CPUS*1000/(float64(w.Positions)/1000))
			rss = append(rss, float64(w.RSSPeak)/(1<<20))
			if len(w.FeedLat) > 0 {
				feed90 = append(feed90, percentile(w.FeedLat, 90))
				feed99 = append(feed99, percentile(w.FeedLat, 99))
			}
			if len(w.APILat) > 0 {
				api99 = append(api99, percentile(w.APILat, 99))
			}
		}
	}
	feed := pooled(trials, func(w windowRecord) []float64 { return w.FeedLat })
	api := pooled(trials, func(w windowRecord) []float64 { return w.APILat })
	ev := pooled(trials, func(w windowRecord) []float64 { return w.EventLat })
	reads := pooled(trials, func(w windowRecord) []float64 { return w.ReadMS })
	return metricSet{
		{"setup_s", "s", median(setups)},
		{"reports_per_s", "reports/s", median(rps)},
		{"cpu_ms_per_kreport", "ms", median(cpu)},
		{"rss_peak_mb", "MiB", median(rss)},
		{"freshness_feed_p50_ms", "ms", percentile(feed, 50)},
		{"freshness_api_p50_ms", "ms", percentile(api, 50)},
		{"freshness_api_p99_ms", "ms", median(api99)},
		{"freshness_feed_p90_ms", "ms", median(feed90)},
		{"freshness_feed_p99_ms", "ms", median(feed99)},
		{"event_latency_p50_ms", "ms", percentile(ev, 50)},
		{"event_latency_p99_ms", "ms", percentile(ev, 99)},
		{"read_p50_ms", "ms", percentile(reads, 50)},
		{"read_p99_ms", "ms", percentile(reads, 99)},
	}
}

func pooled(trials []*trialRecord, get func(windowRecord) []float64) []float64 {
	var out []float64
	for _, t := range trials {
		for _, w := range t.Windows {
			out = append(out, get(w)...)
		}
	}
	return out
}
