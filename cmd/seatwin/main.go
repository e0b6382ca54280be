// Command seatwin runs the full maritime digital-twin pipeline on a
// simulated AIS feed: a fleet simulator produces position reports into
// the embedded broker, the actor pipeline consumes them, forecasts
// routes, detects and forecasts events, and persists state into the
// kvstore, which is served over an HTTP API (and optionally a
// Redis-protocol socket).
//
// Usage:
//
//	seatwin [-vessels 2000] [-region aegean|europe|global] [-model s-vrf.gob]
//	        [-addr :8080] [-resp :6379] [-feed-tcp :9230] [-duration 0] [-seed 1]
//	        [-pprof] [-chaos error=0.1,latency=5ms] [-checkpoint-every 16]
//
// Cluster modes (-cluster):
//
//	(default)     one process owns every partition; no cluster layer at all
//	multi         N worker pipelines in one process behind an in-memory
//	              coordinator, sharing the store and broker — the full
//	              data plane: -workers, -partitions
//	coordinator   serve only the placement control plane over HTTP on
//	              -cluster-addr: -partitions
//	worker        one worker process joined to a remote coordinator:
//	              -worker-id, -coordinator-url. Control plane only — the
//	              embedded broker and store are process-local, so each
//	              worker simulates and serves its owned slice of the
//	              fleet (see DESIGN.md "Cluster placement").
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/broker"
	"seatwin/internal/chaos"
	"seatwin/internal/cluster"
	"seatwin/internal/congestion"
	"seatwin/internal/events"
	"seatwin/internal/feed"
	"seatwin/internal/fleetsim"
	"seatwin/internal/geo"
	"seatwin/internal/kvstore"
	"seatwin/internal/metrics"
	"seatwin/internal/pipeline"
	"seatwin/internal/retry"
	"seatwin/internal/svrf"
	"seatwin/internal/trainer"
	"seatwin/internal/views"
)

// opts carries the parsed flag set to the run modes.
type opts struct {
	vessels int
	box     geo.BBox
	region  string
	fc      events.TrackForecaster
	// model is the live S-VRF model behind fc when one exists (loaded
	// from -model, or created untrained for the lifecycle loop); nil
	// when the kinematic forecaster serves.
	model        *svrf.Model
	retrainEvery time.Duration
	shadowHold   float64
	injector     *chaos.Injector
	addr         string
	respAddr     string
	duration     time.Duration
	seed         int64
	dataDir      string
	ports        bool
	feedTCP      string
	feedRes      int
	pprofOn      bool
	ckptEvery    int
	partitions   int
	workers      int
	workerID     string
	coordURL     string
	clusterAddr  string
}

func main() {
	var (
		vessels      = flag.Int("vessels", 2000, "simulated fleet size")
		region       = flag.String("region", "aegean", "aegean | europe | global")
		modelPath    = flag.String("model", "", "trained S-VRF model file (empty: linear kinematic)")
		addr         = flag.String("addr", "127.0.0.1:8080", "HTTP API listen address")
		respAddr     = flag.String("resp", "", "optional Redis-protocol listen address (e.g. 127.0.0.1:6379)")
		duration     = flag.Duration("duration", 0, "run time (0 = until interrupted)")
		seed         = flag.Int64("seed", 1, "simulation seed")
		dataDir      = flag.String("data", "", "durable broker directory (empty = in-memory)")
		ports        = flag.Bool("monitor-ports", false, "enable port-congestion monitoring for catalog ports in the region")
		feedTCP      = flag.String("feed-tcp", "", "optional live-feed TCP listen address (length-prefixed JSON, e.g. 127.0.0.1:9230)")
		feedRes      = flag.Int("feed-region-res", 7, "hexgrid resolution of live-feed region/<cell> topics")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the API address")
		chaosSpec    = flag.String("chaos", "", "fault-injection spec, e.g. error=0.1,latency=5ms,panic=0.001,truncate=0.01,seed=7 (empty = off)")
		ckptEvery    = flag.Int("checkpoint-every", 0, "reports between vessel history checkpoints (0 = 16; negative = disable checkpointing)")
		retrainEvery = flag.Duration("retrain-every", 0, "background model-retrain interval (0 = lifecycle loop off; single-process mode only)")
		shadowHold   = flag.Float64("shadow-holdout", 0.25, "newest fraction of replayed windows held out for the shadow eval")

		mode        = flag.String("cluster", "", "cluster mode: empty (single process) | multi | coordinator | worker")
		partitions  = flag.Int("partitions", 8, "cluster partition count (cluster modes)")
		workers     = flag.Int("workers", 2, "worker count for -cluster multi")
		workerID    = flag.String("worker-id", "", "this worker's ID for -cluster worker")
		coordURL    = flag.String("coordinator-url", "", "coordinator base URL for -cluster worker (e.g. http://127.0.0.1:7946)")
		clusterAddr = flag.String("cluster-addr", "127.0.0.1:7946", "control-plane listen address for -cluster coordinator")
	)
	flag.Parse()

	var injector *chaos.Injector
	if *chaosSpec != "" {
		policy, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			log.Fatal(err)
		}
		if policy.Enabled() {
			injector = chaos.New(policy)
			log.Printf("chaos enabled: %+v", policy)
		}
	}

	var box geo.BBox
	switch *region {
	case "aegean":
		box = geo.AegeanSea
	case "europe":
		box = geo.EuropeanCoverage
	case "global":
		box = geo.BBox{}
	default:
		log.Fatalf("unknown region %q", *region)
	}

	if *shadowHold <= 0 || *shadowHold >= 1 {
		log.Fatalf("-shadow-holdout %v outside (0,1)", *shadowHold)
	}
	var fc events.TrackForecaster = events.NewKinematicForecaster()
	var model *svrf.Model
	switch {
	case *modelPath != "":
		m, err := svrf.LoadFile(*modelPath, svrf.DefaultConfig())
		if err != nil {
			log.Fatalf("load model: %v", err)
		}
		model = m
		fc = events.SVRFForecaster{Model: m}
		log.Printf("loaded S-VRF model from %s", *modelPath)
	case *retrainEvery > 0:
		// The lifecycle loop needs a live S-VRF model to retrain and
		// swap; without -model it starts untrained and the first
		// promoted candidate takes over.
		m, err := svrf.New(svrf.DefaultConfig())
		if err != nil {
			log.Fatalf("init model: %v", err)
		}
		model = m
		fc = events.SVRFForecaster{Model: m}
		log.Printf("no -model given; starting with untrained S-VRF weights (first promoted retrain takes over)")
	default:
		log.Printf("no -model given; using the linear kinematic forecaster")
	}

	o := opts{
		vessels: *vessels, box: box, region: *region, fc: fc, injector: injector,
		model: model, retrainEvery: *retrainEvery, shadowHold: *shadowHold,
		addr: *addr, respAddr: *respAddr, duration: *duration, seed: *seed,
		dataDir: *dataDir, ports: *ports, feedTCP: *feedTCP, feedRes: *feedRes,
		pprofOn: *pprofOn, ckptEvery: *ckptEvery,
		partitions: *partitions, workers: *workers,
		workerID: *workerID, coordURL: *coordURL, clusterAddr: *clusterAddr,
	}
	switch *mode {
	case "":
		runSingle(o)
	case "multi":
		runMulti(o)
	case "coordinator":
		runCoordinator(o)
	case "worker":
		runWorker(o)
	default:
		log.Fatalf("unknown -cluster mode %q (want multi, coordinator or worker)", *mode)
	}
}

// baseConfig assembles the pipeline config shared by every mode.
func baseConfig(o opts, store *kvstore.Store, hub *feed.Hub) pipeline.Config {
	cfg := pipeline.DefaultConfig(o.fc)
	cfg.Store = store
	cfg.Feed = hub
	cfg.Chaos = o.injector
	cfg.CheckpointInterval = o.ckptEvery
	if o.ports {
		for _, pt := range fleetsim.PortsWithin(regionOrGlobal(o.box)) {
			cfg.Ports = append(cfg.Ports, congestion.Port{
				Name: pt.Name, Pos: pt.Pos, Radius: 6000, Capacity: 10,
			})
		}
		log.Printf("monitoring %d ports (GET /api/congestion)", len(cfg.Ports))
	}
	return cfg
}

// newViews builds the read-side serving layer. The region resolution
// matches the live feed so /api/regions cells line up with feed
// region/<cell> topics.
func newViews(o opts) *views.Views {
	return views.New(views.Config{RegionResolution: o.feedRes})
}

// openBroker returns the feed broker: durable when -data is set (with
// the record types the topics carry registered for gob), else
// in-memory.
func openBroker(o opts) (*broker.Broker, func()) {
	if o.dataDir == "" {
		return broker.New(), func() {}
	}
	broker.RegisterType(ais.PositionReport{})
	broker.RegisterType(ais.StaticVoyage{})
	pipeline.RegisterClusterTypes()
	br, err := broker.OpenDir(o.dataDir)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("durable broker at %s", o.dataDir)
	return br, func() { br.Close() }
}

// serveAPI starts the HTTP API (plus optional RESP and feed-TCP
// endpoints) for a pipeline and returns a closer.
func serveAPI(o opts, p *pipeline.Pipeline, store *kvstore.Store, hub *feed.Hub) func() {
	api := pipeline.NewAPI(p)
	if o.pprofOn {
		api.EnablePprof()
		log.Printf("pprof endpoints on http://%s/debug/pprof/", o.addr)
	}
	go func() {
		if err := api.ListenAndServe(o.addr); err != nil {
			log.Printf("api: %v", err)
		}
	}()
	closers := []func(){func() { api.Close() }}
	if o.respAddr != "" {
		respSrv := kvstore.NewServer(store)
		go func() {
			if err := respSrv.ListenAndServe(o.respAddr); err != nil {
				log.Printf("resp: %v", err)
			}
		}()
		closers = append(closers, respSrv.Close)
		log.Printf("redis-protocol endpoint on %s", o.respAddr)
	}
	if o.feedTCP != "" && hub != nil {
		feedSrv := feed.NewServer(hub)
		go func() {
			if err := feedSrv.ListenAndServe(o.feedTCP); err != nil {
				log.Printf("feed: %v", err)
			}
		}()
		closers = append(closers, func() { feedSrv.Close() })
		log.Printf("live-feed TCP endpoint on %s", o.feedTCP)
	}
	log.Printf("http api on http://%s/api/stats (live feed: /api/stream)", o.addr)
	return func() {
		for _, c := range closers {
			c()
		}
	}
}

// startConsumers subscribes n pipeline consumers to the feed topic.
func startConsumers(o opts, br *broker.Broker, p *pipeline.Pipeline, topic string, n int) {
	for i := 0; i < n; i++ {
		c, err := br.Subscribe(topic, "pipeline")
		if err != nil {
			log.Fatal(err)
		}
		var rc pipeline.RecordConsumer = c
		if o.injector != nil {
			rc = chaos.WrapConsumer(c, o.injector)
		}
		go p.ConsumeLoop(rc, time.Hour)
	}
}

// simLoop drives the fleet simulator into the broker until the
// duration elapses (or forever), printing a stats line every 5s. keep
// filters which reports are produced (nil = all).
func simLoop(o opts, br *broker.Broker, topic string, keep func(ais.MMSI) bool, stats func() string) {
	world := fleetsim.NewWorld(fleetsim.Config{
		Vessels:     o.vessels,
		Seed:        o.seed,
		Region:      o.box,
		KeepSailing: true,
	})
	log.Printf("simulating %d vessels (%s)", o.vessels, o.region)

	// Produce through the chaos wrapper (when enabled) and a bounded
	// retry: a transient produce fault costs a few capped sleeps and,
	// on exhaustion, drops that one report — never the whole process.
	produce := br.Produce
	if o.injector != nil {
		produce = chaos.WrapProducer(br, o.injector).Produce
	}
	producePolicy := retry.DefaultPolicy()
	var produceDropped int64

	stop := time.Now().Add(o.duration)
	statsEvery := time.Now().Add(5 * time.Second)
	for {
		r, ok := world.Next()
		if !ok {
			log.Printf("simulation drained")
			return
		}
		if keep == nil || keep(r.Pos.MMSI) {
			if res := producePolicy.Do(func() (err error) {
				// A panic out of the produce path (an injected chaos fault,
				// or a genuinely broken broker) is one failed attempt, not a
				// process crash — same contract as the consume loop.
				defer func() {
					if rec := recover(); rec != nil {
						err = fmt.Errorf("produce panicked: %v", rec)
					}
				}()
				_, _, err = produce(topic, r.Pos.MMSI.String(), r.Pos)
				return err
			}); res.Err != nil {
				produceDropped++
				if produceDropped == 1 || produceDropped%1000 == 0 {
					log.Printf("produce: dropped %d reports (last: %v)", produceDropped, res.Err)
				}
			}
		}
		if time.Now().After(statsEvery) {
			fmt.Println(stats())
			statsEvery = time.Now().Add(5 * time.Second)
		}
		if o.duration > 0 && time.Now().After(stop) {
			log.Printf("duration reached")
			return
		}
	}
}

func statsLine(p *pipeline.Pipeline) string {
	s := p.Stats()
	return fmt.Sprintf("actors=%d messages=%d forecasts=%d events=%d lat_mean=%v lat_p99=%v",
		s.LiveActors, s.Messages, s.Forecasts, s.Events,
		s.Latency.Mean.Round(time.Microsecond), s.Latency.P99.Round(time.Microsecond))
}

// runSingle is the unchanged default: one process, every partition
// local, no cluster layer (and no ownership checks on the hot path).
func runSingle(o opts) {
	store := kvstore.New()
	defer store.Close()
	hub := feed.NewHub(feed.Options{RegionResolution: o.feedRes})
	defer hub.Close()
	cfg := baseConfig(o, store, hub)
	cfg.Views = newViews(o)
	defer cfg.Views.Close()
	p, err := pipeline.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer p.Shutdown(5 * time.Second)
	defer serveAPI(o, p, store, hub)()

	br, closeBroker := openBroker(o)
	defer closeBroker()
	const topic = "ais"
	if err := br.CreateTopic(topic, 8); err != nil {
		log.Fatal(err)
	}
	startConsumers(o, br, p, topic, 4)
	var tr *trainer.Trainer
	if o.retrainEvery > 0 {
		tr = startTrainer(o, br, p, topic)
	}
	simLoop(o, br, topic, nil, func() string { return statsLine(p) })

	if tr != nil {
		// Stop before Drain (runSingle exits via os.Exit, so no defer):
		// an in-flight retrain finishes, then the loop and consumer shut
		// down cleanly.
		tr.Stop()
		ls := metrics.Lifecycle.Snapshot()
		log.Printf("lifecycle: cycles=%d promotions=%d rejections=%d skips=%d generation=%d",
			ls.Cycles, ls.Promotions, ls.Rejections, ls.Skips, ls.Generation)
	}
	p.Drain(10 * time.Second)
	s := p.Stats()
	fmt.Printf("final: actors=%d messages=%d forecasts=%d events=%d\n",
		s.LiveActors, s.Messages, s.Forecasts, s.Events)
	os.Exit(0)
}

// startTrainer wires the background model-lifecycle loop into a
// single-process run: replay from the AIS topic on a dedicated
// consumer group, shadow-eval candidates against the live model, and
// hot-swap on a win. The L-VRF rebuild publishes through the
// pipeline's atomic route-model pointer, so /api/route serves lanes as
// soon as the first rebuild lands.
func startTrainer(o opts, br *broker.Broker, p *pipeline.Pipeline, topic string) *trainer.Trainer {
	if o.model == nil {
		log.Fatal("-retrain-every needs a live S-VRF model")
	}
	portMap := make(map[string]geo.Point)
	for _, pt := range fleetsim.PortsWithin(regionOrGlobal(o.box)) {
		portMap[pt.Name] = pt.Pos
	}
	tr, err := trainer.New(trainer.Config{
		Broker:       br,
		Topic:        topic,
		Live:         o.model,
		Interval:     o.retrainEvery,
		HoldoutFrac:  o.shadowHold,
		Ports:        portMap,
		PublishRoute: p.SetRouteModel,
	})
	if err != nil {
		log.Fatal(err)
	}
	tr.Start()
	log.Printf("lifecycle trainer: retrain every %v (shadow holdout %.0f%%, %d catalog ports)",
		o.retrainEvery, o.shadowHold*100, len(portMap))
	return tr
}

// runMulti runs the whole cluster in one process: an in-memory
// coordinator, N worker pipelines sharing one store and broker, and
// the simulator feeding a shared topic whose consumer group splits the
// load across workers — every cross-partition path (forwarding,
// rebalance, handoff) is exercised for real.
func runMulti(o opts) {
	if o.workers < 1 {
		log.Fatalf("-cluster multi needs at least one worker, got %d", o.workers)
	}
	store := kvstore.New()
	defer store.Close()
	hub := feed.NewHub(feed.Options{RegionResolution: o.feedRes})
	defer hub.Close()
	br, closeBroker := openBroker(o)
	defer closeBroker()

	// In-process workers share one Go scheduler with the (CPU-heavy)
	// actor work, so a heartbeat can be starved for whole seconds on a
	// loaded small box — and a missed lease here can never mean a dead
	// worker, because workers only die with the whole process. A
	// generous lease keeps liveness expiry out of the picture; real
	// multi-process deployments (-cluster worker) keep the tight
	// default.
	coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Partitions:       o.partitions,
		HeartbeatTimeout: 30 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	// One shared views instance: every worker's writer actors publish
	// into it, so the single API surface (workers[0]) serves the whole
	// fleet regardless of partition ownership.
	v := newViews(o)
	defer v.Close()
	workers := make([]*pipeline.Pipeline, 0, o.workers)
	for i := 0; i < o.workers; i++ {
		cfg := baseConfig(o, store, nil)
		cfg.Views = v
		if i == 0 {
			cfg.Feed = hub // one feed/API surface; state is shared anyway
		}
		cfg.Cluster = &pipeline.ClusterConfig{
			WorkerID:          fmt.Sprintf("w%d", i),
			Membership:        coord,
			Partitions:        o.partitions,
			Broker:            br,
			HeartbeatInterval: 200 * time.Millisecond,
		}
		p, err := pipeline.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer p.Shutdown(5 * time.Second)
		workers = append(workers, p)
	}
	log.Printf("in-process cluster: %d workers, %d partitions", o.workers, o.partitions)
	defer serveAPI(o, workers[0], store, hub)()

	const topic = "ais"
	if err := br.CreateTopic(topic, 8); err != nil {
		log.Fatal(err)
	}
	// One shared consumer group: the broker splits the feed across
	// workers, and each worker forwards what it doesn't own.
	for _, p := range workers {
		startConsumers(o, br, p, topic, 2)
	}
	simLoop(o, br, topic, nil, func() string {
		var messages, forecasts, forwards, received int64
		for _, p := range workers {
			s := p.Stats()
			messages += s.Messages
			forecasts += s.Forecasts
			if s.Cluster != nil {
				forwards += s.Cluster.Forwards
				received += s.Cluster.Received
			}
		}
		return fmt.Sprintf("workers=%d epoch=%d messages=%d forecasts=%d forwards=%d received=%d",
			len(workers), coord.Assignment().Epoch, messages, forecasts, forwards, received)
	})

	for _, p := range workers {
		p.Drain(10 * time.Second)
	}
	var messages, forecasts, forwards int64
	for _, p := range workers {
		s := p.Stats()
		messages += s.Messages
		forecasts += s.Forecasts
		if s.Cluster != nil {
			forwards += s.Cluster.Forwards
		}
	}
	fmt.Printf("final: workers=%d messages=%d forecasts=%d forwards=%d rebalances=%d\n",
		len(workers), messages, forecasts, forwards, coord.Rebalances())
	os.Exit(0)
}

// runCoordinator serves only the placement control plane: workers in
// other processes join, heartbeat and learn assignments over HTTP.
func runCoordinator(o opts) {
	coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{Partitions: o.partitions})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	srv := &http.Server{Addr: o.clusterAddr, Handler: coord.Handler()}
	go func() {
		log.Printf("coordinator control plane on http://%s/cluster/assignment (%d partitions)",
			o.clusterAddr, o.partitions)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	defer srv.Close()
	if o.duration > 0 {
		time.Sleep(o.duration)
		log.Printf("duration reached")
		return
	}
	select {}
}

// runWorker joins one worker pipeline to a remote coordinator. The
// control plane (membership, epochs, assignment) is fully remote; the
// embedded broker and store remain process-local, so the worker
// simulates and serves exactly the slice of the fleet it owns (reports
// for foreign partitions are filtered at the source — swapping the
// embedded broker for a networked one would carry them to their owner
// instead, over the same forward topics).
func runWorker(o opts) {
	if o.workerID == "" {
		log.Fatal("-cluster worker needs -worker-id")
	}
	if o.coordURL == "" {
		log.Fatal("-cluster worker needs -coordinator-url")
	}
	store := kvstore.New()
	defer store.Close()
	hub := feed.NewHub(feed.Options{RegionResolution: o.feedRes})
	defer hub.Close()
	br, closeBroker := openBroker(o)
	defer closeBroker()

	cfg := baseConfig(o, store, hub)
	cfg.Views = newViews(o)
	defer cfg.Views.Close()
	cfg.Cluster = &pipeline.ClusterConfig{
		WorkerID:   o.workerID,
		Membership: cluster.NewRemoteCoordinator(o.coordURL),
		Partitions: o.partitions,
		Broker:     br,
	}
	p, err := pipeline.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer p.Shutdown(5 * time.Second)
	log.Printf("worker %s joined %s (%d partitions)", o.workerID, o.coordURL, o.partitions)
	defer serveAPI(o, p, store, hub)()

	const topic = "ais"
	if err := br.CreateTopic(topic, 8); err != nil {
		log.Fatal(err)
	}
	startConsumers(o, br, p, topic, 4)
	simLoop(o, br, topic, func(m ais.MMSI) bool { return p.OwnsKey(uint64(m)) },
		func() string {
			line := statsLine(p)
			if cs := p.Stats().Cluster; cs != nil {
				line += fmt.Sprintf(" epoch=%d owned=%d/%d", cs.Epoch, cs.OwnedPartitions, cs.Partitions)
			}
			return line
		})

	p.Drain(10 * time.Second)
	fmt.Printf("final: %s\n", statsLine(p))
	os.Exit(0)
}

// regionOrGlobal maps the zero box (global) to the full latitude band
// so the port filter still works.
func regionOrGlobal(box geo.BBox) geo.BBox {
	if box == (geo.BBox{}) {
		return geo.BBox{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	}
	return box
}
