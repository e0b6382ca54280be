package pipeline

import (
	"seatwin/internal/broker"
	"seatwin/internal/metrics"
)

// registerMetrics declares every series the pipeline exports, once.
// /metrics and /api/stats both render p.registry, so a series listed
// here appears on both; each closure reads its recorder only when the
// registry is rendered. Optional subsystems (feed, chaos, cluster,
// broker lag) register only when New was configured with them.
func (p *Pipeline) registerMetrics() {
	r := p.registry
	count := func(c *metrics.ShardedCounter) func() float64 {
		return func() float64 { return float64(c.Value()) }
	}
	r.Counter("seatwin_messages_total", "AIS position reports ingested", count(p.messages))
	r.Counter("seatwin_forecasts_total", "route forecasts produced", count(p.forecasts))
	r.Counter("seatwin_events_total", "maritime events detected or forecast", func() float64 { return float64(p.log.Total()) })
	r.Counter("seatwin_dead_letters_total", "undeliverable actor messages", func() float64 { return float64(p.system.StatsSnapshot().DeadLetters) })
	r.Counter("seatwin_bad_sentences_total", "rejected NMEA sentences", func() float64 { return float64(p.BadSentences()) })
	r.Counter("seatwin_retry_attempts_total", "store/consume operation attempts under the retry policy", count(p.retryAttempts))
	r.Counter("seatwin_retry_retried_total", "operations that succeeded after at least one retry", count(p.retryRetried))
	r.Counter("seatwin_retry_exhausted_total", "operations dropped to degraded mode after exhausting retries", count(p.retryExhausted))
	r.Counter("seatwin_checkpoint_saves_total", "vessel history checkpoints written", count(p.ckptSaves))
	r.Counter("seatwin_checkpoint_restores_total", "vessel history windows rehydrated on spawn", count(p.ckptRestores))
	r.Counter("seatwin_checkpoint_failures_total", "checkpoint saves or loads lost after retries", count(p.ckptFailures))
	r.Gauge("seatwin_live_actors", "currently running actors", func() float64 { return float64(p.system.LiveActors()) })
	r.Gauge("seatwin_actor_queued_messages", "user messages queued in named actors' mailboxes", func() float64 { return float64(p.system.QueuedMessages()) })
	r.Summary("seatwin_processing_seconds", "vessel-actor message processing time", p.latency.Snapshot)
	r.Summary("seatwin_svrf_infer_seconds", "model inference time within vessel-actor processing", p.inferLat.Snapshot)

	// Event-detection layer (DESIGN.md §16): per-family detector update
	// summaries plus the candidate-pair funnel and occupancy.
	for _, fam := range []struct {
		name string
		d    *detectorMetrics
	}{{"proximity", &p.proxDet}, {"collision", &p.collDet}} {
		base := "seatwin_events_" + fam.name
		r.Summary(base+"_update_seconds", fam.name+" detector update time per report", fam.d.updateLat.Snapshot)
		r.Counter(base+"_candidates_total", fam.name+" pair candidates surviving the spatial probe", count(fam.d.candidates))
		r.Counter(base+"_pairs_checked_total", fam.name+" candidate pairs fully distance-checked", count(fam.d.checked))
		r.Counter(base+"_evictions_total", "stale "+fam.name+" detector entries evicted", count(fam.d.evictions))
		r.Gauge(base+"_tracked", "entries tracked across live "+fam.name+" cells", count(fam.d.tracked))
	}
	r.Summary("seatwin_events_collision_track_seconds", "collision track sampling time, once per forecast shared with collision cells", p.trackLat.Snapshot)

	vs := p.cfg.Views.Stats
	r.Gauge("seatwin_views_epoch", "current materialized-view epoch", func() float64 { return float64(vs().Epoch) })
	r.Gauge("seatwin_views_epoch_age_seconds", "age of the serving snapshots", func() float64 { return vs().EpochAge.Seconds() })
	r.Counter("seatwin_views_refreshes_total", "snapshot rebuild-and-swap cycles", func() float64 { return float64(vs().Refreshes) })
	r.Counter("seatwin_views_states_applied_total", "vessel state deltas staged into the views", func() float64 { return float64(vs().StatesApplied) })
	r.Counter("seatwin_views_events_applied_total", "events staged into the views", func() float64 { return float64(vs().EventsApplied) })
	r.Gauge("seatwin_views_refresh_mean_seconds", "mean snapshot rebuild latency", func() float64 { return vs().RefreshMean.Seconds() })
	r.Gauge("seatwin_views_refresh_p99_seconds", "p99 snapshot rebuild latency", func() float64 { return vs().RefreshP99.Seconds() })
	r.Gauge("seatwin_views_snapshot_bytes", "pre-encoded bytes across current snapshots", func() float64 { return float64(vs().SnapshotBytes) })
	r.Gauge("seatwin_views_vessels", "vessels in the current world-view snapshot", func() float64 { return float64(vs().Vessels) })
	r.Gauge("seatwin_views_cells", "hex cells in the current region snapshot", func() float64 { return float64(vs().Cells) })
	r.Gauge("seatwin_views_events_window", "events in the current recent-events window", func() float64 { return float64(vs().EventsWindow) })

	// Training and model-lifecycle recorders are process-wide and read
	// zero in a process that never trains, so they register always:
	// dashboards can alert on "no retrain in N days" without a
	// missing-series case.
	ts := metrics.Training.Snapshot
	r.Counter("seatwin_train_runs_total", "completed S-VRF training runs", func() float64 { return float64(ts().Runs) })
	r.Counter("seatwin_train_epochs_total", "training epochs finished", func() float64 { return float64(ts().Epochs) })
	r.Counter("seatwin_train_batches_total", "optimiser steps taken", func() float64 { return float64(ts().Batches) })
	r.Counter("seatwin_train_samples_total", "training samples consumed (each epoch visit counts)", func() float64 { return float64(ts().Samples) })
	r.Counter("seatwin_train_clip_events_total", "batches whose gradient hit the clip bound", func() float64 { return float64(ts().ClipEvents) })
	r.Counter("seatwin_train_lanes_total", "L-VRF lane graphs built", func() float64 { return float64(ts().Lanes) })
	r.Counter("seatwin_train_seconds_total", "wall time spent inside training epochs", func() float64 { return ts().TrainSeconds })
	r.Gauge("seatwin_train_last_loss", "most recent per-epoch mean training loss", func() float64 { return ts().LastLoss })
	r.Gauge("seatwin_train_samples_per_second", "lifetime mean training throughput", func() float64 { return ts().SamplesPerSec })
	ls := metrics.Lifecycle.Snapshot
	r.Counter("seatwin_lifecycle_cycles_total", "completed retrain cycles (including skips)", func() float64 { return float64(ls().Cycles) })
	r.Counter("seatwin_lifecycle_promotions_total", "candidates that won the shadow eval and were hot-swapped", func() float64 { return float64(ls().Promotions) })
	r.Counter("seatwin_lifecycle_rejections_total", "candidates rejected by the promotion gate", func() float64 { return float64(ls().Rejections) })
	r.Counter("seatwin_lifecycle_skips_total", "cycles skipped for lack of replayed history", func() float64 { return float64(ls().Skips) })
	r.Counter("seatwin_lifecycle_replay_records_total", "records replayed from broker-retained history", func() float64 { return float64(ls().ReplayRecords) })
	r.Counter("seatwin_lifecycle_lane_rebuilds_total", "L-VRF lane-graph rebuilds published", func() float64 { return float64(ls().LaneRebuilds) })
	r.Counter("seatwin_lifecycle_retrain_seconds_total", "wall time spent training candidates", func() float64 { return ls().RetrainSeconds })
	r.Counter("seatwin_lifecycle_eval_seconds_total", "wall time spent shadow-evaluating candidates", func() float64 { return ls().EvalSeconds })
	r.Gauge("seatwin_lifecycle_generation", "live model weight generation", func() float64 { return float64(ls().Generation) })
	r.Gauge("seatwin_lifecycle_last_live_ade_meters", "live model mean ADE on the most recent holdout", func() float64 { return ls().LastLiveADE })
	r.Gauge("seatwin_lifecycle_last_candidate_ade_meters", "candidate mean ADE on the most recent holdout", func() float64 { return ls().LastCandidateADE })
	r.Gauge("seatwin_lifecycle_last_train_windows", "train windows in the most recent retrain cycle", func() float64 { return float64(ls().LastTrainWindows) })
	r.Gauge("seatwin_lifecycle_last_holdout", "held-out windows in the most recent retrain cycle", func() float64 { return float64(ls().LastHoldout) })

	if hub := p.cfg.Feed; hub != nil {
		fs, rs := hub.Snapshot, hub.RelayStats
		r.Gauge("seatwin_feed_subscribers", "live feed subscribers connected", func() float64 { return float64(fs().Subscribers) })
		r.Counter("seatwin_feed_subscribers_total", "live feed subscribers ever connected", func() float64 { return float64(fs().TotalSubs) })
		r.Counter("seatwin_feed_frames_published_total", "frames entering the feed hub", func() float64 { return float64(fs().Published) })
		r.Counter("seatwin_feed_frames_fanned_total", "frame deliveries enqueued to subscriber rings", func() float64 { return float64(fs().Fanned) })
		r.Counter("seatwin_feed_frames_dropped_total", "frames evicted by drop-oldest overflow", func() float64 { return float64(fs().Dropped) })
		r.Counter("seatwin_feed_frames_conflated_total", "frames conflated in place by key", func() float64 { return float64(fs().Conflated) })
		r.Counter("seatwin_feed_disconnects_total", "slow consumers force-disconnected", func() float64 { return float64(fs().Disconnected) })
		r.Gauge("seatwin_feed_fanout_p99_seconds", "p99 hub fan-out latency per publish", func() float64 { return fs().FanoutP99.Seconds() })
		r.Gauge("seatwin_feed_relays", "relay tiers attached to the hub", func() float64 { return float64(rs().Relays) })
		r.Gauge("seatwin_feed_relay_subscribers", "local subscribers behind relay tiers", func() float64 { return float64(rs().Subscribers) })
		r.Counter("seatwin_feed_relay_frames_total", "frames pumped through relay tiers", func() float64 { return float64(rs().Relayed) })
		r.Counter("seatwin_feed_relay_fanned_total", "frame deliveries enqueued to relay-local rings", func() float64 { return float64(rs().Fanned) })
		r.Counter("seatwin_feed_relay_local_dropped_total", "frames evicted by drop-oldest overflow in relay-local rings", func() float64 { return float64(rs().LocalDropped) })
		r.Counter("seatwin_feed_relay_local_conflated_total", "frames conflated in place in relay-local rings", func() float64 { return float64(rs().LocalConflated) })
		r.Counter("seatwin_feed_relay_disconnects_total", "relay-local subscribers force-disconnected", func() float64 { return float64(rs().Disconnected) })
		r.Counter("seatwin_views_relay_conflation_drops_total", "upstream frames conflated away or evicted in relay tiers before local fan-out", func() float64 { return float64(rs().ConflationDrops) })
	}
	if in := p.cfg.Chaos; in != nil {
		r.Counter("seatwin_chaos_errors_total", "chaos-injected operation errors", func() float64 { return float64(in.Stats().Errors) })
		r.Counter("seatwin_chaos_panics_total", "chaos-injected panics", func() float64 { return float64(in.Stats().Panics) })
		r.Counter("seatwin_chaos_delays_total", "chaos-injected latency delays", func() float64 { return float64(in.Stats().Delays) })
		r.Counter("seatwin_chaos_truncations_total", "chaos-injected broker truncations", func() float64 { return float64(in.Stats().Truncations) })
	}
	var brokers []*broker.Broker
	if cl := p.cl; cl != nil {
		cs := p.clusterStats
		r.GaugeVec("seatwin_cluster_info", "this worker's identity (value is always 1)", func() []metrics.LabeledSample {
			return []metrics.LabeledSample{{Labels: []metrics.Label{{Name: "worker_id", Value: cl.me}}, Value: 1}}
		})
		r.Gauge("seatwin_cluster_epoch", "placement epoch in effect on this worker", func() float64 { return float64(cs().Epoch) })
		r.Gauge("seatwin_cluster_partitions", "cluster partition count", func() float64 { return float64(cs().Partitions) })
		r.Gauge("seatwin_cluster_owned_partitions", "partitions this worker owns", func() float64 { return float64(cs().OwnedPartitions) })
		r.Gauge("seatwin_cluster_pending_forwards", "cross-partition forwards queued or in flight", func() float64 { return float64(cs().PendingForwards) })
		r.Counter("seatwin_cluster_forwards_total", "records forwarded to foreign partitions", func() float64 { return float64(cs().Forwards) })
		r.Counter("seatwin_cluster_forward_drops_total", "forwards lost after retry exhaustion", func() float64 { return float64(cs().ForwardDrops) })
		r.Counter("seatwin_cluster_received_total", "records consumed from owned partition topics", func() float64 { return float64(cs().Received) })
		r.Counter("seatwin_cluster_fenced_total", "records abandoned on ownership loss", func() float64 { return float64(cs().Fenced) })
		r.Counter("seatwin_cluster_rebalances_total", "assignments applied by this worker", func() float64 { return float64(cs().Rebalances) })
		brokers = append(brokers, cl.cfg.Broker)
	}
	if ob := p.cfg.OutputBroker; ob != nil && (p.cl == nil || ob != p.cl.cfg.Broker) {
		brokers = append(brokers, ob)
	}
	// Consumer-group lag, one sample per topic+group pair, across every
	// broker the pipeline touches (cluster forward topics and the
	// dedicated output streams).
	if len(brokers) > 0 {
		r.GaugeVec("seatwin_broker_lag", "records committed offsets trail the log end by, per topic and group", func() []metrics.LabeledSample {
			var out []metrics.LabeledSample
			for _, bk := range brokers {
				for _, gl := range bk.GroupLags() {
					out = append(out, metrics.LabeledSample{
						Labels: []metrics.Label{{Name: "topic", Value: gl.Topic}, {Name: "group", Value: gl.Group}},
						Value:  float64(gl.Lag),
					})
				}
			}
			return out
		})
	}
}
