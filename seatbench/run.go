package main

import (
	"fmt"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/feed"
	"seatwin/internal/pipeline"
	"seatwin/internal/views"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	spec    spec
	seed    int64
	seconds float64
	trace   bool
	// traceDir receives traced trials' spans ("" = not written).
	traceDir string
	// subprocess runs each trial in a child process (the command does;
	// tests run trials in-process).
	subprocess bool
	// withhold drops the n-th position report (1-based) of the first
	// window at the producer while the output check still expects it;
	// 0 sends all.
	withhold int
}

// windowDur is one timed window's share of --seconds.
func (cfg runConfig) windowDur() time.Duration {
	n := cfg.spec.trials * cfg.spec.windows
	return time.Duration(cfg.seconds / float64(n) * float64(time.Second))
}

// trialResult is one fresh system: its set-up, its measured windows and
// the output check over all of them.
type trialResult struct {
	setup   time.Duration
	windows []*windowResult

	forecasts, eventsLogged int64
	attempted, failed       int
	problems                []string
}

// windowResult is one timed window.
type windowResult struct {
	elapsed   time.Duration // window start until processing ended
	positions int
	cpu       time.Duration
	rssPeak   int64

	reads readResult
	gen   genResult // live windows
	feed  *feedObserver
	view  *viewsObserver
	qerr  error
	layer *layerSample // traced trials only
}

// layerSample holds what a traced window reads from the system's public
// snapshots at its edges, plus its spans and sampled gauges.
type layerSample struct {
	spans                 []span
	t0, end               int64 // window in tracer time
	before, after         pipeline.Stats
	procBefore, procAfter uint64
	hubBefore, hubAfter   feed.Stats
	views                 views.Stats
	storeKeys             int
	rtBefore, rtAfter     []metrics.Sample
	lagMax, queueMax      int64
	heapMax               int64
	epochAges             []float64
	liveActors            int64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// runTrial sets up one fresh system, warms it, measures its windows one
// after another and checks its outputs. A non-nil tracer traces it.
func runTrial(cfg runConfig, in *inputs, tr *tracer) (*trialResult, error) {
	sp := cfg.spec
	res := &trialResult{}
	setupStart := time.Now()
	s, err := newSystem(in.fc, sp.readRate > 0, tr)
	if err != nil {
		return nil, err
	}
	defer s.close()

	for _, m := range in.warm {
		if err := s.produce(m); err != nil {
			return nil, err
		}
	}
	if err := s.startConsumers(); err != nil {
		return nil, err
	}
	if _, err := s.waitQuiescent(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res.setup = time.Since(setupStart)

	for i, w := range in.windows {
		withhold := 0
		if i == 0 {
			withhold = cfg.withhold
		}
		wr, err := runWindow(s, sp, in, w, withhold, tr)
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", i+1, err)
		}
		res.windows = append(res.windows, wr)
	}
	check(res, s, in, cfg)
	return res, nil
}

// runWindow measures one window: for replay an outage (consumers
// closed) that queues the window's backlog, then the drain from restart
// to quiescence; for live workloads the open-loop send of the window's
// lines and reads, until everything sent was processed.
func runWindow(s *system, sp spec, in *inputs, w *window, withhold int, tr *tracer) (*windowResult, error) {
	res := &windowResult{positions: w.positions}
	var spanLo int64
	if tr != nil {
		spanLo = tr.next.Load()
	}
	if !sp.live {
		s.stopConsumers()
		tr.start()
		err := fillBacklog(s, w, withhold, tr)
		tr.stop()
		if err != nil {
			return nil, err
		}
	}
	debug.FreeOSMemory()
	var ls *layerSample
	if tr != nil {
		ls = &layerSample{before: s.p.Stats(), hubBefore: s.hub.Snapshot(), rtBefore: readRuntime(),
			procBefore: s.p.System().StatsSnapshot().MessagesProcessed}
	}
	// The window starts a little in the future so the observers and
	// samplers below are running before the first report is due.
	t0 := time.Now().Add(2 * time.Millisecond)
	fo, err := startFeedObserver(s.hub, sp, in, w, t0)
	if err != nil {
		return nil, err
	}
	vo := startViewsObserver(s.views, in, w, t0)
	sm := startSampler(s, tr != nil)
	cpu0 := cpuTime()
	sleepUntil(t0)
	tr.start()
	if ls != nil {
		ls.t0 = tr.now()
	}

	if sp.live {
		readsDone := make(chan readResult, 1)
		go func() { readsDone <- runReads(s.base, w.reads, t0, tr) }()
		res.gen = runGenerator(s, w, t0, withhold, tr)
		res.reads = <-readsDone
	} else if err := s.startConsumers(); err != nil {
		return nil, err
	}
	end, qerr := s.waitQuiescent()
	cpu1 := cpuTime()
	tr.stop()
	sm.stop()
	if sm.err != nil {
		return nil, sm.err
	}
	res.elapsed, res.cpu, res.rssPeak, res.qerr = end.Sub(t0), cpu1-cpu0, sm.rssMax, qerr
	if ls != nil {
		ls.end = tr.now() - int64(time.Since(end))
		ls.after = s.p.Stats()
		ls.procAfter = s.p.System().StatsSnapshot().MessagesProcessed
		ls.hubAfter = s.hub.Snapshot()
		ls.rtAfter = readRuntime()
		ls.lagMax, ls.queueMax, ls.heapMax, ls.epochAges = sm.lagMax, sm.queueMax, sm.heapMax, sm.epochAges
		ls.liveActors = s.p.System().LiveActors()
		spans := tr.recorded()
		ls.spans = spans[min(spanLo, int64(len(spans))):]
	}

	// Every sampled report must become visible on both paths.
	for deadline := time.Now().Add(observeWait); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if fo.fresh.remaining.Load() == 0 && vo.fresh.remaining.Load() == 0 {
			break
		}
	}
	fo.stop()
	vo.stop()
	res.feed, res.view = fo, vo
	if ls != nil {
		ls.views = s.views.Stats()
		ls.storeKeys = s.store.Len()
		res.layer = ls
	}
	return res, nil
}

// fillBacklog decodes a window's NMEA lines and produces them while no
// consumer runs: the broker holds the reports that arrived during the
// outage.
func fillBacklog(s *system, w *window, withhold int, tr *tracer) error {
	asm := ais.NewAssembler()
	pos := 0
	for _, wl := range w.lines {
		start := tr.now()
		msg, err := decodeLine(asm, wl.line, wl.at)
		if err != nil {
			return err
		}
		id := wl.id
		tr.record(spDecode, id, 1, start, tr.now())
		if msg == nil {
			continue
		}
		if wl.pos {
			if pos++; pos == withhold {
				continue
			}
		}
		start = tr.now()
		if err := s.produce(msg); err != nil {
			return err
		}
		tr.record(spProduce, id, 1, start, tr.now())
	}
	return nil
}

// genResult is the open-loop generator's outcome.
type genResult struct {
	lateness []float64 // ms per position report
	errs     int
}

// runGenerator is the single generator goroutine: it sends every
// pre-generated line at its due time, decoding it with ais and
// producing it to the broker, and records how late each position was.
func runGenerator(s *system, w *window, t0 time.Time, withhold int, tr *tracer) genResult {
	asm := ais.NewAssembler()
	out := genResult{lateness: make([]float64, 0, w.positions)}
	pos := 0
	for _, wl := range w.lines {
		due := t0.Add(wl.due)
		sleepUntil(due)
		sent := time.Now()
		if wl.pos {
			out.lateness = append(out.lateness, ms(sent.Sub(due)))
		}
		start := tr.now()
		msg, err := decodeLine(asm, wl.line, wl.at)
		decoded := tr.now()
		if err != nil {
			out.errs++
			continue
		}
		id := wl.id
		tr.record(spDecode, id, 1, start, decoded)
		if msg == nil {
			tr.record(spSend, id, 0, start, decoded)
			continue
		}
		if wl.pos {
			if pos++; pos == withhold {
				continue
			}
		}
		if err := s.produce(msg); err != nil {
			out.errs++
			continue
		}
		end := tr.now()
		tr.record(spProduce, id, 1, decoded, end)
		tr.record(spSend, id, 1, start, end)
	}
	return out
}
