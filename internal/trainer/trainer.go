// Package trainer closes the model-lifecycle loop (ROADMAP #5): a
// background actor that keeps the serving models fresh against drifting
// traffic without ever taking them offline.
//
// Each retrain cycle:
//
//  1. replays retained track history from the broker — the trainer is
//     an ordinary consumer group on the AIS topic, so committed offsets
//     make restarts resume where the last process left off, and broker
//     retention (Truncate) bounds how far back a cold start reads;
//  2. retrains a candidate S-VRF, warm-started from a clone of the
//     live weights, through the compiled fused-gate path (PR 8), and
//     optionally rebuilds the L-VRF lane graphs from the same history;
//  3. shadow-evaluates the candidate against the live model on the
//     newest windows, which are held out of training, through the
//     promotion gate in internal/experiments;
//  4. on a win, atomically hot-swaps the candidate's weights into the
//     live model via svrf's generation-counted compiled-snapshot
//     publish. Forecasts in flight never block or drop: they keep the
//     previous snapshot until the swap lands. A worse model never
//     ships — the gate rejects it and the live weights stay untouched.
package trainer

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/broker"
	"seatwin/internal/experiments"
	"seatwin/internal/geo"
	"seatwin/internal/lvrf"
	"seatwin/internal/metrics"
	"seatwin/internal/svrf"
	"seatwin/internal/traj"
)

// Config wires a Trainer. Broker, Topic and Live are required.
type Config struct {
	// Broker and Topic locate the retained AIS history; Group names the
	// trainer's consumer group (default "trainer"). Using a dedicated
	// group keeps the trainer's replay cursor independent of the
	// pipeline's ingest cursor.
	Broker *broker.Broker
	Topic  string
	Group  string

	// Live is the serving S-VRF model the trainer retrains and swaps.
	Live *svrf.Model

	// Interval paces the background loop (default 10 minutes).
	Interval time.Duration

	// HoldoutFrac is the fraction of windows — the newest, by anchor
	// time — held out of training for the shadow eval (default 0.25).
	// Evaluating on the most recent traffic is the point: the candidate
	// must win on where the patterns of life are now, not where they
	// were.
	HoldoutFrac float64

	// MinTrainWindows skips a cycle with fewer training windows than
	// this (default 64); MaxTrainWindows caps the training set, keeping
	// the newest (default 20000).
	MinTrainWindows int
	MaxTrainWindows int

	// MaxReportsPerVessel bounds the per-vessel retained history, in
	// downsampled reports (default 512 ≈ 4¼ hours at the 30 s rate).
	MaxReportsPerVessel int

	// MaxPollsPerCycle bounds one cycle's replay so a producer that
	// outruns the trainer cannot wedge the loop (default 4096 polls of
	// up to 1024 records each).
	MaxPollsPerCycle int

	// TrainOptions tunes the candidate fit. The zero value selects
	// DefaultCycleTrainOptions — fewer epochs than an offline fit, since
	// the candidate warm-starts from the live weights.
	TrainOptions svrf.TrainOptions

	// Promotion tunes the gate; zero fields get the conservative
	// defaults from experiments.DefaultPromotionConfig.
	Promotion experiments.PromotionConfig

	// Traj shapes windowing; the zero value selects traj.DefaultConfig.
	Traj traj.Config

	// Ports and PublishRoute, both set, enable the L-VRF rebuild: each
	// cycle extracts complete port-to-port trips from the retained
	// history, rebuilds the lane graphs and hands the model to
	// PublishRoute (typically pipeline.SetRouteModel — an atomic
	// pointer swap on the serving side).
	Ports        map[string]geo.Point
	PublishRoute func(*lvrf.Model)
	// RouteConfig tunes the lane build; the zero value selects
	// lvrf.DefaultConfig.
	RouteConfig lvrf.Config

	// OnCycle, when non-nil, receives every cycle's outcome — the
	// observability and test hook.
	OnCycle func(CycleResult)
}

// CycleResult is one retrain cycle's outcome.
type CycleResult struct {
	// Replayed counts records consumed from the broker this cycle.
	Replayed int
	// Vessels and Windows size the retained history after the replay.
	Vessels int
	Windows int
	// TrainWindows and Holdout size the split actually used.
	TrainWindows int
	Holdout      int
	// Skipped is true when the cycle ended before training (not enough
	// history); SkipReason says why.
	Skipped    bool
	SkipReason string
	// Loss is the candidate's final training loss.
	Loss float64
	// Promotion is the gate's verdict and evidence.
	Promotion experiments.PromotionResult
	// Promoted reports whether the hot-swap landed; Generation is the
	// live model's weight generation after the cycle.
	Promoted   bool
	Generation uint64
	// Lanes counts L-VRF lanes published this cycle (0 = no rebuild).
	Lanes int
	// RetrainTime and EvalTime are the cycle's wall-time costs.
	RetrainTime time.Duration
	EvalTime    time.Duration
}

// DefaultCycleTrainOptions returns the per-cycle fit options: a short
// warm-started fit through the compiled path.
func DefaultCycleTrainOptions() svrf.TrainOptions {
	return svrf.TrainOptions{Epochs: 4, BatchSize: 64, LR: 1e-3, Workers: 0, Seed: 1}
}

// track is one vessel's retained, downsampled, time-ordered history.
type track struct {
	reports []ais.PositionReport
}

// Trainer is the background lifecycle actor. Create with New, drive
// either with Start/Stop (the background loop) or RunCycle (one
// synchronous cycle — tests and smoke runs).
type Trainer struct {
	cfg      Config
	consumer *broker.Consumer

	// mu guards tracks: RunCycle may be called directly while the
	// background loop owns the usual cadence.
	mu     sync.Mutex
	tracks map[ais.MMSI]*track

	pollHint uint64

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New validates the config, applies defaults and subscribes the
// trainer's consumer group. The returned Trainer is idle until Start
// or RunCycle.
func New(cfg Config) (*Trainer, error) {
	if cfg.Broker == nil {
		return nil, fmt.Errorf("trainer: Config.Broker is required")
	}
	if cfg.Topic == "" {
		return nil, fmt.Errorf("trainer: Config.Topic is required")
	}
	if cfg.Live == nil {
		return nil, fmt.Errorf("trainer: Config.Live is required")
	}
	if cfg.HoldoutFrac < 0 || cfg.HoldoutFrac >= 1 {
		return nil, fmt.Errorf("trainer: HoldoutFrac %v outside [0,1)", cfg.HoldoutFrac)
	}
	if cfg.Group == "" {
		cfg.Group = "trainer"
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Minute
	}
	if cfg.HoldoutFrac == 0 {
		cfg.HoldoutFrac = 0.25
	}
	if cfg.MinTrainWindows <= 0 {
		cfg.MinTrainWindows = 64
	}
	if cfg.MaxTrainWindows <= 0 {
		cfg.MaxTrainWindows = 20000
	}
	if cfg.MaxReportsPerVessel <= 0 {
		cfg.MaxReportsPerVessel = 512
	}
	if cfg.MaxPollsPerCycle <= 0 {
		cfg.MaxPollsPerCycle = 4096
	}
	if cfg.TrainOptions.Epochs == 0 {
		cfg.TrainOptions = DefaultCycleTrainOptions()
	}
	if cfg.Promotion.MaxADERatio == 0 {
		cfg.Promotion.MaxADERatio = experiments.DefaultPromotionConfig().MaxADERatio
	}
	if cfg.Promotion.MinHoldout == 0 {
		cfg.Promotion.MinHoldout = experiments.DefaultPromotionConfig().MinHoldout
	}
	if cfg.Traj.InputSteps == 0 {
		cfg.Traj = traj.DefaultConfig()
	}
	c, err := cfg.Broker.Subscribe(cfg.Topic, cfg.Group)
	if err != nil {
		return nil, err
	}
	return &Trainer{
		cfg:      cfg,
		consumer: c,
		tracks:   make(map[ais.MMSI]*track),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}, nil
}

// Start launches the background loop: one RunCycle per Interval until
// Stop. Start is idempotent.
func (t *Trainer) Start() {
	t.startOnce.Do(func() {
		go t.loop()
	})
}

// Stop halts the background loop (waiting for an in-flight cycle to
// finish) and closes the trainer's consumer. Safe to call even when
// Start never ran.
func (t *Trainer) Stop() {
	t.stopOnce.Do(func() {
		close(t.stop)
	})
	t.startOnce.Do(func() {
		// Start never ran; there is no loop to wait for.
		close(t.done)
	})
	<-t.done
	t.consumer.Close()
}

func (t *Trainer) loop() {
	defer close(t.done)
	ticker := time.NewTicker(t.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
			res := t.RunCycle()
			t.logCycle(res)
		}
	}
}

func (t *Trainer) logCycle(res CycleResult) {
	log := slog.With("component", "trainer", "generation", res.Generation)
	switch {
	case res.Skipped:
		log.Info("cycle skipped", "reason", res.SkipReason,
			"replayed", res.Replayed, "vessels", res.Vessels, "windows", res.Windows)
	case res.Promoted:
		log.Info("candidate promoted", "reason", res.Promotion.Reason,
			"train_windows", res.TrainWindows, "loss", res.Loss,
			"retrain", res.RetrainTime.Round(time.Millisecond), "eval", res.EvalTime.Round(time.Millisecond),
			"lanes", res.Lanes)
	default:
		log.Info("candidate rejected", "reason", res.Promotion.Reason,
			"train_windows", res.TrainWindows, "loss", res.Loss)
	}
}

// RunCycle executes one full retrain cycle synchronously and returns
// its outcome. Safe to call concurrently with the background loop and
// with forecasts on the live model.
func (t *Trainer) RunCycle() CycleResult {
	t.mu.Lock()
	defer t.mu.Unlock()

	res := CycleResult{}
	res.Replayed = t.replayLocked()
	res.Vessels = len(t.tracks)

	windows := t.buildWindowsLocked()
	res.Windows = len(windows)
	train, holdout := t.split(windows)
	res.TrainWindows, res.Holdout = len(train), len(holdout)

	finish := func() CycleResult {
		res.Generation = t.cfg.Live.Generation()
		metrics.Lifecycle.Cycle(metrics.CycleObservation{
			Promoted:     res.Promoted,
			Skipped:      res.Skipped,
			LiveADE:      res.Promotion.LiveADE,
			CandidateADE: res.Promotion.CandidateADE,
			TrainWindows: res.TrainWindows,
			Holdout:      res.Holdout,
			Retrain:      res.RetrainTime,
			Eval:         res.EvalTime,
			Generation:   res.Generation,
		})
		if t.cfg.OnCycle != nil {
			t.cfg.OnCycle(res)
		}
		return res
	}

	if len(train) < t.cfg.MinTrainWindows {
		res.Skipped = true
		res.SkipReason = fmt.Sprintf("%d train windows < %d required", len(train), t.cfg.MinTrainWindows)
		return finish()
	}
	if len(holdout) < t.cfg.Promotion.MinHoldout {
		res.Skipped = true
		res.SkipReason = fmt.Sprintf("%d holdout windows < %d required", len(holdout), t.cfg.Promotion.MinHoldout)
		return finish()
	}

	candidate, err := t.cfg.Live.Clone()
	if err != nil {
		res.Skipped = true
		res.SkipReason = fmt.Sprintf("clone live model: %v", err)
		return finish()
	}
	start := time.Now()
	res.Loss = candidate.Train(train, t.cfg.TrainOptions)
	res.RetrainTime = time.Since(start)

	start = time.Now()
	res.Promotion = experiments.RunPromotion(t.cfg.Live, candidate, holdout, t.cfg.Promotion)
	res.EvalTime = time.Since(start)

	if res.Promotion.Promote {
		if err := t.cfg.Live.SwapWeightsFrom(candidate); err != nil {
			// A geometry mismatch here means a config bug, not a lifecycle
			// condition; surface it as a rejection with the error recorded.
			res.Promotion.Promote = false
			res.Promotion.Reason = fmt.Sprintf("swap failed: %v", err)
		} else {
			res.Promoted = true
		}
	}

	res.Lanes = t.rebuildRouteLocked()
	return finish()
}

// replayLocked drains the broker's retained history into the per-vessel
// tracks, committing offsets per batch (at-least-once; redelivered
// records are shed by the per-vessel timestamp guard).
func (t *Trainer) replayLocked() int {
	replayed := 0
	for i := 0; i < t.cfg.MaxPollsPerCycle; i++ {
		recs := t.consumer.Poll(1024, 10*time.Millisecond)
		if len(recs) == 0 {
			break
		}
		for _, rec := range recs {
			r, ok := rec.Value.(ais.PositionReport)
			if !ok {
				continue
			}
			t.fold(r)
		}
		replayed += len(recs)
		t.pollHint++
		metrics.Lifecycle.Replay(t.pollHint, len(recs))
		t.consumer.Commit()
	}
	return replayed
}

// fold appends one report to its vessel's retained history, applying
// the downsample gap at ingest (so retention buys the longest usable
// history per byte) and the per-vessel cap.
func (t *Trainer) fold(r ais.PositionReport) {
	tr := t.tracks[r.MMSI]
	if tr == nil {
		tr = &track{}
		t.tracks[r.MMSI] = tr
	}
	if n := len(tr.reports); n > 0 {
		// Drop out-of-order and redelivered reports, and apply the
		// downsample gap incrementally — re-downsampling the retained
		// stream is then a no-op, so windowing sees the same series a
		// batch pass over the raw history would.
		if r.Timestamp.Sub(tr.reports[n-1].Timestamp) < t.cfg.Traj.Downsample {
			return
		}
	}
	tr.reports = append(tr.reports, r)
	if excess := len(tr.reports) - t.cfg.MaxReportsPerVessel; excess > 0 {
		tr.reports = append(tr.reports[:0], tr.reports[excess:]...)
	}
}

// buildWindowsLocked cuts training/eval windows from every retained
// track, in deterministic vessel order.
func (t *Trainer) buildWindowsLocked() []traj.Window {
	mmsis := make([]ais.MMSI, 0, len(t.tracks))
	for m := range t.tracks {
		mmsis = append(mmsis, m)
	}
	sort.Slice(mmsis, func(i, j int) bool { return mmsis[i] < mmsis[j] })
	var windows []traj.Window
	for _, m := range mmsis {
		windows = append(windows, traj.BuildWindows(t.tracks[m].reports, t.cfg.Traj)...)
	}
	return windows
}

// split orders windows by anchor time and holds out the newest
// HoldoutFrac for the shadow eval; the rest (newest-first, capped at
// MaxTrainWindows) trains the candidate. The split is temporal, not
// random: the gate must measure the candidate on traffic the training
// never saw AND that is most recent — the drift the lifecycle exists
// to catch.
func (t *Trainer) split(windows []traj.Window) (train, holdout []traj.Window) {
	if len(windows) == 0 {
		return nil, nil
	}
	sorted := make([]traj.Window, len(windows))
	copy(sorted, windows)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].LastTime.Before(sorted[j].LastTime) })
	h := int(float64(len(sorted)) * t.cfg.HoldoutFrac)
	if h > len(sorted) {
		h = len(sorted)
	}
	cut := len(sorted) - h
	train, holdout = sorted[:cut], sorted[cut:]
	if len(train) > t.cfg.MaxTrainWindows {
		train = train[len(train)-t.cfg.MaxTrainWindows:]
	}
	return train, holdout
}

// rebuildRouteLocked rebuilds the L-VRF lane graphs from the retained
// history and publishes the new model. Returns the lane count (0 when
// the rebuild is disabled or produced no lanes worth publishing).
func (t *Trainer) rebuildRouteLocked() int {
	if len(t.cfg.Ports) == 0 || t.cfg.PublishRoute == nil {
		return 0
	}
	var trips []lvrf.Trip
	for m, tr := range t.tracks {
		in := lvrf.TrackInput{
			MMSI:      uint32(m),
			Positions: make([]geo.Point, len(tr.reports)),
			Times:     make([]time.Time, len(tr.reports)),
		}
		for i, r := range tr.reports {
			in.Positions[i] = geo.Point{Lat: r.Lat, Lon: r.Lon}
			in.Times[i] = r.Timestamp
		}
		trips = append(trips, lvrf.ExtractTrips(in, t.cfg.Ports, 0)...)
	}
	if len(trips) == 0 {
		return 0
	}
	model := lvrf.Train(trips, t.cfg.Ports, t.cfg.RouteConfig)
	if model.Lanes() == 0 {
		return 0
	}
	t.cfg.PublishRoute(model)
	metrics.Lifecycle.LaneRebuild()
	return model.Lanes()
}
