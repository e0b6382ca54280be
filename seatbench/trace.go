package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/broker"
	"seatwin/internal/events"
)

// spanKind names the layer boundary a span was recorded at. Every span
// is recorded by the benchmark's own code around a call into a public
// function of the system.
type spanKind uint8

const (
	spSend     spanKind = iota // generator: one line decoded and produced
	spDecode                   // ais.ParseSentence + Assembler.Push
	spProduce                  // broker.Produce
	spPoll                     // RecordConsumer.Poll
	spIngest                   // Poll return -> Commit (pipeline ingest batch)
	spForecast                 // TrackForecaster.ForecastTrack
	spRead                     // one HTTP read (n = read kind)
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"gen.send", "ais.decode", "broker.produce", "broker.poll",
	"pipeline.ingest_batch", "forecaster.forecast", "api.read",
}

// parentKind is the span kind that encloses a kind in the same
// goroutine, for self time (nSpanKinds = none).
var parentKind = [nSpanKinds]spanKind{
	spSend: nSpanKinds, spDecode: spSend, spProduce: spSend, spPoll: nSpanKinds,
	spIngest: nSpanKinds, spForecast: nSpanKinds, spRead: nSpanKinds,
}

// span is one recorded interval. id ties one report's spans together:
// reportID of its MMSI and timestamp; batch spans use a batch sequence.
// n is the span's work count (records in a poll or batch, 1/0 for a
// forecast that succeeded/failed, the read kind for reads).
type span struct {
	kind       spanKind
	n          int32
	id         uint64
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in a preallocated buffer; nothing is written until
// the run ends. A nil *tracer records nothing.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	batch   atomic.Uint64
	on      atomic.Bool // spans are recorded only while on
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) start() {
	if t != nil {
		t.on.Store(true)
	}
}

func (t *tracer) stop() {
	if t != nil {
		t.on.Store(false)
	}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) record(k spanKind, id uint64, n int32, start, end int64) {
	if t == nil || !t.on.Load() {
		return
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{kind: k, n: n, id: id, start: start, end: end}
}

// recorded returns the spans recorded so far.
func (t *tracer) recorded() []span {
	return t.spans[:min(t.next.Load(), int64(len(t.spans)))]
}

func reportID(m ais.MMSI, ts time.Time) uint64 {
	return uint64(m)<<32 ^ uint64(uint32(ts.Unix()))
}

// tracedConsumer wraps the broker consumer handed to ConsumeLoop: one
// span per Poll, and one per ingest batch from Poll's return to Commit.
type tracedConsumer struct {
	c         *broker.Consumer
	t         *tracer
	batchID   uint64
	batchN    int32
	pollEnded int64
}

func (w *tracedConsumer) Poll(max int, wait time.Duration) []broker.Record {
	start := w.t.now()
	recs := w.c.Poll(max, wait)
	w.pollEnded = w.t.now()
	w.batchID = w.t.batch.Add(1)
	w.batchN = int32(len(recs))
	w.t.record(spPoll, w.batchID, w.batchN, start, w.pollEnded)
	return recs
}

func (w *tracedConsumer) Commit() {
	w.t.record(spIngest, w.batchID, w.batchN, w.pollEnded, w.t.now())
	w.c.Commit()
}

// tracedForecaster wraps the pipeline's forecaster; its span carries
// the ID of the history's last report.
type tracedForecaster struct {
	inner events.TrackForecaster
	t     *tracer
}

func (f tracedForecaster) Name() string { return f.inner.Name() }

func (f tracedForecaster) ForecastTrack(history []ais.PositionReport) (events.Forecast, bool) {
	start := f.t.now()
	fc, ok := f.inner.ForecastTrack(history)
	var id uint64
	if n := len(history); n > 0 {
		id = reportID(history[n-1].MMSI, history[n-1].Timestamp)
	}
	var okN int32
	if ok {
		okN = 1
	}
	f.t.record(spForecast, id, okN, start, f.t.now())
	return fc, ok
}

// spanSummary aggregates one span kind: count, total and self time.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	MeanUS  float64 `json:"mean_us"`
	P99US   float64 `json:"p99_us"`
}

// summarize derives per-kind totals and self time: a span's self time
// is its duration minus the time its child spans (same id, enclosed
// kind) cover.
func summarize(spans []span) []spanSummary {
	var childNs [nSpanKinds]map[uint64]int64
	for k := spanKind(0); k < nSpanKinds; k++ {
		childNs[k] = map[uint64]int64{}
	}
	for _, s := range spans {
		if p := parentKind[s.kind]; p != nSpanKinds {
			childNs[p][s.id] += s.end - s.start
		}
	}
	durs := make([][]float64, nSpanKinds)
	out := make([]spanSummary, nSpanKinds)
	for _, s := range spans {
		d := s.end - s.start
		o := &out[s.kind]
		o.Count++
		o.TotalMS += float64(d) / 1e6
		o.SelfMS += float64(d-childNs[s.kind][s.id]) / 1e6
		durs[s.kind] = append(durs[s.kind], float64(d)/1e3)
	}
	for k := range out {
		out[k].Name = spanNames[k]
		if out[k].Count > 0 {
			out[k].MeanUS = out[k].TotalMS * 1e3 / float64(out[k].Count)
			out[k].P99US = percentile(durs[k], 99)
		}
	}
	return out
}

// writeTrace writes one trial's spans as JSON lines, preceded by a
// header line with the per-kind summary, to a new file in dir.
func writeTrace(dir, workload string, seed int64, t *tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f, err := os.CreateTemp(dir, fmt.Sprintf("%s-seed%d-*.jsonl", workload, seed))
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	spans := append([]span(nil), t.recorded()...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	head, _ := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "spans": len(spans), "dropped": t.dropped.Load(),
		"env": currentEnv(), "summary": summarize(spans),
	})
	w.Write(head)
	w.WriteByte('\n')
	for _, s := range spans {
		fmt.Fprintf(w, `{"name":%q,"id":%d,"n":%d,"start_ns":%d,"dur_ns":%d}`+"\n",
			spanNames[s.kind], s.id, s.n, s.start, s.end-s.start)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return f.Name(), f.Close()
}
