package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// Registry is the one declaration of a process's exported series. Each
// series is a name, help text and a closure that reads an existing
// recorder (a ShardedCounter, a ShardedLatencyRecorder, a subsystem's
// Stats) when the registry is rendered — nothing is read or written on
// the recording path. Both renderings, the Prometheus text format and
// the JSON object, walk the same list, so a series exported on one is
// exported on the other.
type Registry struct {
	mu     sync.Mutex
	series []series
	names  map[string]struct{}
}

// Label is one name/value pair of a labelled sample.
type Label struct{ Name, Value string }

// LabeledSample is one sample of a labelled gauge family.
type LabeledSample struct {
	Labels []Label
	Value  float64
}

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindSummary
	kindGaugeVec
)

type series struct {
	name, help string
	kind       kind
	value      func() float64
	summary    func() Snapshot
	samples    func() []LabeledSample
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

func (r *Registry) add(s series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[s.name]; dup || s.name == "" {
		panic(fmt.Sprintf("metrics: series %q registered twice or unnamed", s.name))
	}
	r.names[s.name] = struct{}{}
	r.series = append(r.series, s)
}

// Counter registers a monotonically increasing series.
func (r *Registry) Counter(name, help string, read func() float64) {
	r.add(series{name: name, help: help, kind: kindCounter, value: read})
}

// Gauge registers a series that can go up and down.
func (r *Registry) Gauge(name, help string, read func() float64) {
	r.add(series{name: name, help: help, kind: kindGauge, value: read})
}

// Summary registers a latency summary: count, sum and the p50/p95/p99
// quantiles, rendered in seconds.
func (r *Registry) Summary(name, help string, read func() Snapshot) {
	r.add(series{name: name, help: help, kind: kindSummary, summary: read})
}

// GaugeVec registers a labelled gauge family whose samples are listed
// at render time (a family with no samples renders its header only).
func (r *Registry) GaugeVec(name, help string, read func() []LabeledSample) {
	r.add(series{name: name, help: help, kind: kindGaugeVec, samples: read})
}

func (r *Registry) list() []series {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.series[:len(r.series):len(r.series)]
}

var typeNames = [...]string{kindCounter: "counter", kindGauge: "gauge", kindSummary: "summary", kindGaugeVec: "gauge"}

// WritePrometheus renders every series in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b []byte
	for _, s := range r.list() {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", s.name, s.help, s.name, typeNames[s.kind])
		switch s.kind {
		case kindCounter, kindGauge:
			b = appendSample(b, s.name, "", s.value())
		case kindSummary:
			snap := s.summary()
			b = appendSample(b, s.name, `{quantile="0.5"}`, snap.P50.Seconds())
			b = appendSample(b, s.name, `{quantile="0.95"}`, snap.P95.Seconds())
			b = appendSample(b, s.name, `{quantile="0.99"}`, snap.P99.Seconds())
			b = appendSample(b, s.name+"_sum", "", snap.Sum.Seconds())
			b = appendSample(b, s.name+"_count", "", float64(snap.Count))
		case kindGaugeVec:
			for _, smp := range s.samples() {
				labels := "{"
				for i, l := range smp.Labels {
					if i > 0 {
						labels += ","
					}
					labels += l.Name + "=" + strconv.Quote(l.Value)
				}
				b = appendSample(b, s.name, labels+"}", smp.Value)
			}
		}
	}
	_, err := w.Write(b)
	return err
}

// appendSample writes one "name{labels} value" line.
func appendSample(b []byte, name, labels string, v float64) []byte {
	b = append(b, name...)
	b = append(b, labels...)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	return append(b, '\n')
}

// JSON renders every series as one object keyed by series name: a
// counter or gauge is a number, a summary an object of count, sum, p50,
// p95 and p99 (seconds), and a labelled family a list of
// {"labels": {...}, "value": v}. Non-finite values become null, which
// JSON can carry and NaN cannot.
func (r *Registry) JSON() map[string]any {
	list := r.list()
	doc := make(map[string]any, len(list))
	for _, s := range list {
		switch s.kind {
		case kindCounter, kindGauge:
			doc[s.name] = jsonNumber(s.value())
		case kindSummary:
			snap := s.summary()
			doc[s.name] = map[string]any{
				"count": snap.Count,
				"sum":   snap.Sum.Seconds(),
				"p50":   snap.P50.Seconds(),
				"p95":   snap.P95.Seconds(),
				"p99":   snap.P99.Seconds(),
			}
		case kindGaugeVec:
			samples := []map[string]any{}
			for _, smp := range s.samples() {
				labels := make(map[string]string, len(smp.Labels))
				for _, l := range smp.Labels {
					labels[l.Name] = l.Value
				}
				samples = append(samples, map[string]any{"labels": labels, "value": jsonNumber(smp.Value)})
			}
			doc[s.name] = samples
		}
	}
	return doc
}

func jsonNumber(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return v
}
