package trainer

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seatwin/internal/broker"
	"seatwin/internal/experiments"
	"seatwin/internal/fleetsim"
	"seatwin/internal/geo"
	"seatwin/internal/svrf"
	"seatwin/internal/traj"
)

// recordFleet captures a deterministic regional dataset once per test
// binary (the expensive part of every lifecycle test).
var recordFleet = sync.OnceValue(func() *fleetsim.RecordedDataset {
	return fleetsim.Record(geo.AegeanSea, 16, 2*time.Hour, 5)
})

// produceDataset replays a recorded dataset into the broker, keyed by
// MMSI like the live simulator, and returns the record count.
func produceDataset(t testing.TB, b *broker.Broker, topic string, ds *fleetsim.RecordedDataset) int {
	t.Helper()
	n := 0
	for _, tr := range ds.Tracks {
		for _, r := range tr.Reports {
			if _, _, err := b.Produce(topic, r.MMSI.String(), r); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	return n
}

// fastConfig returns trainer settings sized for a test dataset.
func fastConfig(b *broker.Broker, live *svrf.Model) Config {
	return Config{
		Broker:          b,
		Topic:           "ais",
		Live:            live,
		HoldoutFrac:     0.3,
		MinTrainWindows: 64,
		TrainOptions:    svrf.TrainOptions{Epochs: 2, BatchSize: 64, LR: 2e-3, Seed: 1},
		Promotion:       experiments.PromotionConfig{MaxADERatio: 1.0, MinHoldout: 24},
	}
}

// evalWindow cuts one forecastable window from the dataset.
func evalWindow(t testing.TB, ds *fleetsim.RecordedDataset) traj.Window {
	t.Helper()
	for _, tr := range ds.Tracks {
		if ws := traj.BuildWindows(tr.Reports, traj.DefaultConfig()); len(ws) > 0 {
			return ws[0]
		}
	}
	t.Fatal("no forecastable window in dataset")
	return traj.Window{}
}

// The e2e lifecycle path (run it with -race): the trainer replays
// broker-retained history through its own committed-offset group,
// trains a candidate, wins the shadow eval against the untrained live
// model, and hot-swaps — while concurrent forecast load on the live
// model never blocks, drops or shortens a forecast.
func TestLifecycleEndToEnd(t *testing.T) {
	ds := recordFleet()
	b := broker.New()
	if err := b.CreateTopic("ais", 8); err != nil {
		t.Fatal(err)
	}
	produced := produceDataset(t, b, "ais", ds)
	// Enforce retention before the trainer ever reads: the replay must
	// work from the retained tail alone (and the committed-offset snap
	// keeps lag finite — see broker.Truncate).
	if err := b.Truncate("ais", 2048); err != nil {
		t.Fatal(err)
	}

	live, err := svrf.New(svrf.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(fastConfig(b, live))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Stop()

	// Concurrent forecast load across the whole cycle, including the
	// hot-swap: every forecast must complete at full length.
	w := evalWindow(t, ds)
	var forecasts atomic.Int64
	var bad atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]geo.Point, 0, 6)
			for !stop.Load() {
				dst = live.ForecastInto(dst, w)
				if len(dst) != 6 {
					bad.Add(1)
				}
				forecasts.Add(1)
			}
		}()
	}

	res := tr.RunCycle()
	stop.Store(true)
	wg.Wait()

	if res.Skipped {
		t.Fatalf("cycle skipped: %s", res.SkipReason)
	}
	if res.Replayed == 0 || res.Replayed > produced {
		t.Fatalf("replayed %d records (produced %d)", res.Replayed, produced)
	}
	if res.TrainWindows < 64 || res.Holdout < 24 {
		t.Fatalf("split too small: train=%d holdout=%d", res.TrainWindows, res.Holdout)
	}
	if !res.Promotion.Promote || !res.Promoted {
		t.Fatalf("trained candidate must beat the untrained live model: %+v", res.Promotion)
	}
	if res.Promotion.CandidateADE >= res.Promotion.LiveADE {
		t.Fatalf("candidate ADE %.1f not better than live %.1f",
			res.Promotion.CandidateADE, res.Promotion.LiveADE)
	}
	if gen := live.Generation(); gen != 1 {
		t.Fatalf("live generation %d after promotion, want 1", gen)
	}
	if forecasts.Load() == 0 {
		t.Fatal("no forecasts completed during the cycle")
	}
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d forecasts came back short during the swap", n)
	}
}

// Restarts resume: a second trainer on the same consumer group must
// not re-replay history the first one committed.
func TestReplayResumesFromCommittedOffsets(t *testing.T) {
	ds := recordFleet()
	b := broker.New()
	if err := b.CreateTopic("ais", 8); err != nil {
		t.Fatal(err)
	}
	produceDataset(t, b, "ais", ds)

	live, err := svrf.New(svrf.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr1, err := New(fastConfig(b, live))
	if err != nil {
		t.Fatal(err)
	}
	res1 := tr1.RunCycle()
	if res1.Replayed == 0 {
		t.Fatal("first trainer replayed nothing")
	}
	tr1.Stop() // "process restart": the group's committed offsets survive

	tr2, err := New(fastConfig(b, live))
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Stop()

	// Produce a tail of fresh records; the new trainer must replay
	// exactly those, not the whole history again.
	fresh := 0
	for _, track := range ds.Tracks[:4] {
		last := track.Reports[len(track.Reports)-1]
		for i := 1; i <= 25; i++ {
			r := last
			r.Timestamp = last.Timestamp.Add(time.Duration(i) * 30 * time.Second)
			pos := geo.DeadReckon(geo.Point{Lat: last.Lat, Lon: last.Lon}, last.SOG, last.COG,
				(time.Duration(i) * 30 * time.Second).Seconds())
			r.Lat, r.Lon = pos.Lat, pos.Lon
			if _, _, err := b.Produce("ais", r.MMSI.String(), r); err != nil {
				t.Fatal(err)
			}
			fresh++
		}
	}
	res2 := tr2.RunCycle()
	if res2.Replayed != fresh {
		t.Fatalf("resumed trainer replayed %d records, want exactly the %d fresh ones", res2.Replayed, fresh)
	}
}

// A deliberately worse candidate — a diverging fit — must never replace
// the live model: the verdict is a rejection, the generation does not
// move, and the serving forecasts stay byte-identical.
func TestWorseCandidateNeverShips(t *testing.T) {
	ds := recordFleet()
	b := broker.New()
	if err := b.CreateTopic("ais", 8); err != nil {
		t.Fatal(err)
	}
	produceDataset(t, b, "ais", ds)

	// A decently trained live model...
	var windows []traj.Window
	for _, track := range ds.Tracks {
		windows = append(windows, traj.BuildWindows(track.Reports, traj.DefaultConfig())...)
	}
	live, err := svrf.New(svrf.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	live.Train(windows, svrf.TrainOptions{Epochs: 3, BatchSize: 64, LR: 2e-3, Seed: 1})
	genBefore := live.Generation()

	// ...against a candidate whose fit diverges (absurd learning rate).
	cfg := fastConfig(b, live)
	cfg.TrainOptions = svrf.TrainOptions{Epochs: 2, BatchSize: 64, LR: 50, Seed: 1}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Stop()

	w := evalWindow(t, ds)
	before := live.Forecast(w)

	res := tr.RunCycle()
	if res.Skipped {
		t.Fatalf("cycle skipped: %s", res.SkipReason)
	}
	if res.Promotion.Promote || res.Promoted {
		t.Fatalf("worse candidate promoted: %+v", res.Promotion)
	}
	if gen := live.Generation(); gen != genBefore {
		t.Fatalf("generation moved %d -> %d on a rejected candidate", genBefore, gen)
	}
	after := live.Forecast(w)
	for h := range before {
		if before[h] != after[h] {
			t.Fatalf("horizon %d: live forecast changed on a rejected candidate: %v -> %v",
				h, before[h], after[h])
		}
	}
}
