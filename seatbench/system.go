package main

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/broker"
	"seatwin/internal/events"
	"seatwin/internal/feed"
	"seatwin/internal/kvstore"
	"seatwin/internal/pipeline"
	"seatwin/internal/views"
)

// The system is configured as cmd/seatwin runs it by default: views on,
// the feed hub attached, one writer, checkpoints every 16 reports, no
// cluster, four consumers on an eight-partition topic.
const (
	topic       = "ais"
	group       = "pipeline"
	partitions  = 8
	consumers   = 4
	regionRes   = 7
	pollWait    = time.Hour // must not expire mid-run; see NOTES.md
	stallAfter  = 5 * time.Second
	quietFor    = 50 * time.Millisecond
	drainLimit  = 60 * time.Second
	observeWait = 3 * time.Second
)

// errStall reports a ConsumeLoop that stopped consuming with records
// still in the broker.
var errStall = errors.New("stall: processed count stopped moving while broker lag is non-zero")

// system is one fresh instance of the system under test.
type system struct {
	store *kvstore.Store
	hub   *feed.Hub
	views *views.Views
	p     *pipeline.Pipeline
	br    *broker.Broker
	api   *pipeline.API
	base  string // http://host:port of the API ("" without one)
	tr    *tracer

	cons  []*broker.Consumer
	loops sync.WaitGroup
}

func newSystem(fc events.TrackForecaster, withAPI bool, tr *tracer) (*system, error) {
	s := &system{
		store: kvstore.New(),
		hub:   feed.NewHub(feed.Options{RegionResolution: regionRes}),
		views: views.New(views.Config{RegionResolution: regionRes}),
		br:    broker.New(),
		tr:    tr,
	}
	if tr != nil {
		fc = tracedForecaster{inner: fc, t: tr}
	}
	cfg := pipeline.DefaultConfig(fc)
	cfg.Store, cfg.Feed, cfg.Views = s.store, s.hub, s.views
	p, err := pipeline.New(cfg)
	if err != nil {
		s.close()
		return nil, err
	}
	s.p = p
	if err := s.br.CreateTopic(topic, partitions); err != nil {
		s.close()
		return nil, err
	}
	if withAPI {
		if err := s.serve(); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// serve starts the HTTP API on an ephemeral loopback port.
func (s *system) serve() error {
	s.api = pipeline.NewAPI(s.p)
	errc := make(chan error, 1)
	go func() { errc <- s.api.ListenAndServe("127.0.0.1:0") }()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if a := s.api.Addr(); a != nil {
			s.base = "http://" + a.String()
			return nil
		}
		select {
		case err := <-errc:
			return fmt.Errorf("api: %w", err)
		default:
		}
	}
	return errors.New("api: listener did not come up")
}

// produce appends one decoded message to the ingest topic, keyed by
// MMSI like cmd/seatwin.
func (s *system) produce(m ais.Message) error {
	_, _, err := s.br.Produce(topic, m.Source().String(), m)
	return err
}

// startConsumers subscribes the pipeline's consumers, then runs one
// ConsumeLoop each. Every consumer joins the group before any polls, so
// no rebalance moves a partition with uncommitted records (which the
// broker would redeliver, at least once, to its new owner).
func (s *system) startConsumers() error {
	rcs := make([]pipeline.RecordConsumer, consumers)
	for i := range rcs {
		c, err := s.br.Subscribe(topic, group)
		if err != nil {
			return err
		}
		s.cons = append(s.cons, c)
		rcs[i] = c
		if s.tr != nil {
			rcs[i] = &tracedConsumer{c: c, t: s.tr}
		}
	}
	for _, rc := range rcs {
		s.loops.Add(1)
		go func() {
			defer s.loops.Done()
			s.p.ConsumeLoop(rc, pollWait)
		}()
	}
	return nil
}

// stopConsumers ends consumption by closing the consumers, then waits
// for every ConsumeLoop to return.
func (s *system) stopConsumers() {
	for _, c := range s.cons {
		c.Close()
	}
	s.loops.Wait()
	s.cons = nil
}

func (s *system) lag() int64 {
	ls, err := s.br.Lag(topic, group)
	if err != nil {
		return -1
	}
	var n int64
	for _, l := range ls {
		n += l
	}
	return n
}

// waitQuiescent waits until everything enqueued has been processed:
// the broker lag is zero, no mailbox holds a message and the processed
// count has not moved for quietFor. It returns when processing last
// moved, which is when the work ended. It fails if the processed count
// stops moving while the broker still holds records (a stalled
// consumer), or after drainLimit.
func (s *system) waitQuiescent() (time.Time, error) {
	sys := s.p.System()
	last := sys.StatsSnapshot().MessagesProcessed
	lastMove := time.Now()
	deadline := lastMove.Add(drainLimit)
	for {
		time.Sleep(time.Millisecond)
		now := time.Now()
		if now.After(deadline) {
			return lastMove, fmt.Errorf("not quiescent after %v (lag %d, queued %d)", drainLimit, s.lag(), sys.QueuedMessages())
		}
		cur := sys.StatsSnapshot().MessagesProcessed
		if cur != last {
			last, lastMove = cur, now
			continue
		}
		idle := now.Sub(lastMove)
		if idle < 5*time.Millisecond {
			continue
		}
		lag := s.lag()
		switch {
		case lag > 0 && idle > stallAfter:
			return lastMove, errStall
		case lag == 0 && idle >= quietFor && sys.QueuedMessages() == 0:
			return lastMove, nil
		}
		// Processing has paused: poll less often, so the mailbox scan
		// stays rare.
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *system) close() {
	if s.cons != nil {
		s.stopConsumers()
	}
	if s.api != nil {
		s.api.Close()
	}
	if s.p != nil {
		s.p.Shutdown(5 * time.Second)
	}
	s.views.Close()
	s.hub.Close()
	s.store.Close()
}

// httpClient returns a client holding at most one connection.
func httpClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}
