package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/feed"
	"seatwin/internal/views"
)

// sample is one window report whose visibility is timed: its decoded
// timestamp and the time it was due.
type sample struct {
	ts  int64 // unix nanos
	due time.Time
}

// freshness times sampled reports from their due time until an
// observer first sees the vessel at a timestamp at least theirs. One
// goroutine owns a freshness; remaining is readable from any.
type freshness struct {
	queues    map[ais.MMSI][]sample
	lat       []float64 // ms
	remaining atomic.Int64
}

func newFreshness(in *inputs, w *window, t0 time.Time) *freshness {
	f := &freshness{queues: map[ais.MMSI][]sample{}}
	for _, wl := range w.lines {
		if wl.pos && in.sampled[wl.report.MMSI] {
			f.queues[wl.report.MMSI] = append(f.queues[wl.report.MMSI], sample{ts: wl.report.Timestamp.UnixNano(), due: t0.Add(wl.due)})
			f.remaining.Add(1)
		}
	}
	return f
}

func (f *freshness) observe(m ais.MMSI, ts int64, now time.Time) {
	q := f.queues[m]
	i := 0
	for ; i < len(q) && q[i].ts <= ts; i++ {
		f.lat = append(f.lat, ms(now.Sub(q[i].due)))
	}
	if i > 0 {
		f.queues[m] = q[i:]
		f.remaining.Add(int64(-i))
	}
}

// feedObserver is the benchmark's in-process feed subscription. It
// times sampled reports' state frames and, on the events topics, the
// delay from a proximity event's triggering report to its frame.
type feedObserver struct {
	sub    *feed.Subscription
	fresh  *freshness
	evDue  map[evKey]time.Time
	evLat  []float64 // ms
	events [2]int    // proximity, collision frames seen
	bad    int       // undecodable frames
	done   chan struct{}
}

type evKey struct {
	a  ais.MMSI
	at int64 // unix seconds
}

type frameDoc struct {
	Type  string `json:"type"`
	MMSI  string `json:"mmsi"`
	TS    string `json:"ts"`
	Class string `json:"class"`
	A     string `json:"a"`
	At    string `json:"at"`
}

func startFeedObserver(hub *feed.Hub, sp spec, in *inputs, w *window, t0 time.Time) (*feedObserver, error) {
	var topics []string
	for m := range in.sampled {
		topics = append(topics, feed.TopicVesselPrefix+m.String())
	}
	o := &feedObserver{fresh: newFreshness(in, w, t0), done: make(chan struct{})}
	if sp.eventTopics {
		topics = append(topics, feed.TopicProximity, feed.TopicCollision)
		o.evDue = map[evKey]time.Time{}
		for _, wl := range w.lines {
			if wl.pos {
				o.evDue[evKey{wl.report.MMSI, wl.report.Timestamp.Unix()}] = t0.Add(wl.due)
			}
		}
	}
	// The ring holds a whole replay backlog's sampled frames, so a slow
	// observer never loses the frame that makes a sample visible.
	sub, err := hub.Subscribe(topics, feed.SubOptions{Buffer: 1 << 15})
	if err != nil {
		return nil, err
	}
	o.sub = sub
	go o.loop()
	return o, nil
}

func (o *feedObserver) loop() {
	defer close(o.done)
	for {
		d, ok := o.sub.Recv()
		if !ok {
			return
		}
		now := time.Now()
		var doc frameDoc
		if err := json.Unmarshal(d.Data, &doc); err != nil {
			o.bad++
			continue
		}
		switch doc.Type {
		case "state":
			m, err1 := strconv.ParseUint(doc.MMSI, 10, 32)
			ts, err2 := time.Parse(time.RFC3339, doc.TS)
			if err1 != nil || err2 != nil {
				o.bad++
				continue
			}
			o.fresh.observe(ais.MMSI(m), ts.UnixNano(), now)
		case "event":
			switch doc.Class {
			case "proximity":
				o.events[0]++
				a, err1 := strconv.ParseUint(doc.A, 10, 32)
				at, err2 := time.Parse(time.RFC3339, doc.At)
				if err1 != nil || err2 != nil {
					o.bad++
					continue
				}
				if due, ok := o.evDue[evKey{ais.MMSI(a), at.Unix()}]; ok {
					o.evLat = append(o.evLat, ms(now.Sub(due)))
				}
			case "collision":
				o.events[1]++
			}
		}
	}
}

// stop closes the subscription and waits for the loop to end; the
// observer's fields are then safe to read.
func (o *feedObserver) stop() {
	o.sub.Close()
	<-o.done
}

// viewsObserver polls the snapshot /api/vessels serves and times
// sampled reports until a snapshot holds the vessel at their timestamp.
type viewsObserver struct {
	fresh *freshness
	quit  chan struct{}
	done  chan struct{}
}

func startViewsObserver(v *views.Views, in *inputs, w *window, t0 time.Time) *viewsObserver {
	o := &viewsObserver{fresh: newFreshness(in, w, t0), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(o.done)
		var last uint64
		for {
			select {
			case <-o.quit:
				return
			default:
			}
			if snap := v.Vessels(); snap.Epoch != last {
				last = snap.Epoch
				now := time.Now()
				for _, it := range snap.Items {
					o.fresh.observe(it.MMSI, it.TS, now)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	return o
}

func (o *viewsObserver) stop() {
	close(o.quit)
	<-o.done
}

// readResult is the read mix's outcome: per-kind latency from the due
// time (the user's view) and from the send (the server's service time).
type readResult struct {
	fromDue [nReadKinds][]float64 // ms
	service [nReadKinds][]float64 // ms
	failed  int
	errs    []string
}

// runReads drives the open-loop read schedule over two connections:
// worker w sends requests w, w+2, ... each at its due time (or at once
// if the connection is still busy with an earlier one).
func runReads(base string, reqs []readReq, t0 time.Time, tr *tracer) readResult {
	const conns = 2
	parts := make([]readResult, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := httpClient()
			defer c.CloseIdleConnections()
			res := &parts[w]
			for i := w; i < len(reqs); i += conns {
				r := reqs[i]
				due := t0.Add(r.due)
				sleepUntil(due)
				start := time.Now()
				var traceStart int64
				if tr != nil {
					traceStart = tr.now()
				}
				status, err := get(c, base+r.path)
				end := time.Now()
				if tr != nil {
					tr.record(spRead, uint64(i), int32(r.kind), traceStart, tr.now())
				}
				if err != nil || status != 200 {
					res.failed++
					if len(res.errs) < 3 {
						res.errs = append(res.errs, fmt.Sprintf("GET %s: status %d err %v", r.path, status, err))
					}
					continue
				}
				res.fromDue[r.kind] = append(res.fromDue[r.kind], ms(end.Sub(due)))
				res.service[r.kind] = append(res.service[r.kind], ms(end.Sub(start)))
			}
		}()
	}
	wg.Wait()
	var out readResult
	for _, p := range parts {
		for k := range p.fromDue {
			out.fromDue[k] = append(out.fromDue[k], p.fromDue[k]...)
			out.service[k] = append(out.service[k], p.service[k]...)
		}
		out.failed += p.failed
		out.errs = append(out.errs, p.errs...)
	}
	return out
}

func get(c *http.Client, url string) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssBytes reads the resident set size from /proc/self/statm.
func rssBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", b)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return pages * int64(os.Getpagesize()), nil
}

// sampler polls process and system gauges during the timed window:
// resident set always; with probes (traced runs) also broker lag,
// mailbox depth, heap and view epoch age.
type sampler struct {
	quit chan struct{}
	done chan struct{}

	rssMax, heapMax  int64
	lagMax, queueMax int64
	epochAges        []float64
	err              error
}

func startSampler(s *system, probes bool) *sampler {
	sm := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(sm.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			rss, err := rssBytes()
			if err != nil {
				sm.err = err
				return
			}
			sm.rssMax = max(sm.rssMax, rss)
			if probes && i%4 == 0 {
				metrics.Read(heap)
				sm.heapMax = max(sm.heapMax, int64(heap[0].Value.Uint64()))
				sm.lagMax = max(sm.lagMax, s.lag())
				sm.queueMax = max(sm.queueMax, s.p.System().QueuedMessages())
				sm.epochAges = append(sm.epochAges, ms(s.views.Stats().EpochAge))
			}
			select {
			case <-sm.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return sm
}

func (sm *sampler) stop() {
	close(sm.quit)
	<-sm.done
}
