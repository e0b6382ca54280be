package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/events"
	"seatwin/internal/fleetsim"
	"seatwin/internal/geo"
	"seatwin/internal/svrf"
	"seatwin/internal/traj"
)

// spec is one named workload: the fleet the inputs come from, how the
// system is warmed up, and what the timed window sends.
type spec struct {
	name string
	// strait selects fleetsim.DenseStraitWorld and the kinematic
	// forecaster (the cmd/seatwin default without -model); otherwise the
	// fleet sails geo.EuropeanCoverage and an S-VRF model is trained.
	strait  bool
	vessels int
	// warmup is the simulated time ingested (and drained) before the
	// timed window, per trial.
	warmup time.Duration
	// live selects open-loop windows of NMEA lines sent at rate position
	// reports/s; otherwise each window drains a backlog of
	// backlogPerSec × the window's share of --seconds decoded reports.
	live          bool
	rate          float64
	backlogPerSec float64
	// readRate is the open-loop HTTP read mix rate (0 = no readers).
	readRate float64
	// sampleEvery subscribes the feed to every n-th vessel and samples
	// all of that vessel's window reports for freshness.
	sampleEvery int
	// eventTopics adds events/proximity and events/collision to the
	// feed subscription (event latency).
	eventTopics bool
	// trials is how many fresh systems a run sets up, each in a process
	// of its own; windows is how many timed windows each one measures.
	trials, windows int
}

var workloads = []spec{
	{
		name: "replay-europe", vessels: 500, warmup: 12 * time.Minute,
		backlogPerSec: 5000, sampleEvery: 8, trials: 2, windows: 4,
	},
	{
		name: "live-europe", vessels: 500, warmup: 12 * time.Minute,
		live: true, rate: 1000, readRate: 100, sampleEvery: 8, trials: 2, windows: 4,
	},
	{
		name: "live-strait", strait: true, vessels: 60, warmup: 2 * time.Minute,
		live: true, rate: 30, sampleEvery: 1, eventTopics: true, trials: 2, windows: 4,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// wireLine is one pre-generated NMEA sentence of a timed window. pos
// marks the line that completes a position report; report is that
// report as decoded (its MMSI and timestamp are the key freshness is
// matched on).
type wireLine struct {
	line   string
	at     time.Time     // simulated receive time (stamps the decode)
	due    time.Duration // offset from the window start
	pos    bool
	report ais.PositionReport
	// id ties the spans this line causes together: the report's
	// reportID, or a unique line number with the top bit set.
	id uint64
}

// readKind names one request class of the read mix.
type readKind uint8

const (
	readVessels readKind = iota
	readVesselsBBox
	readVesselPoint
	readEvents
	readRegions
	nReadKinds
)

var readNames = [nReadKinds]string{"vessels", "vessels_bbox", "vessel_point", "events", "regions"}

type readReq struct {
	due  time.Duration
	kind readKind
	path string
}

// window is one timed window's inputs: its NMEA lines (a live send
// schedule, or a replay backlog) and, for live-europe, its reads.
type window struct {
	lines     []wireLine
	positions int
	reads     []readReq
}

// inputs is everything a trial sends, generated from the seed before
// any system exists; every trial of a run sends the same inputs. The
// windows continue the warm-up's simulated fleet one after another.
type inputs struct {
	fc       events.TrackForecaster
	trainDur time.Duration
	// warm is the decoded warm-up stream (positions and statics).
	warm    []ais.Message
	warmPos int
	windows []*window
	// sampled are the vessels whose window reports are freshness
	// samples: every sampleEvery-th vessel seen, in MMSI order.
	sampled map[ais.MMSI]bool
}

// trainSeed fixes the S-VRF training data and initialisation, so every
// workload seed forecasts with the same weights.
const trainSeed = 1

// trainModel fits a small S-VRF model on a fixed simulated dataset. Its
// forecasts only need to be deterministic, not accurate.
func trainModel() *svrf.Model {
	ds := fleetsim.Record(geo.EuropeanCoverage, 40, 2*time.Hour, trainSeed)
	cfg := traj.DefaultConfig()
	var windows []traj.Window
	for _, tr := range ds.Tracks {
		windows = append(windows, traj.BuildWindows(tr.Reports, cfg)...)
	}
	m, err := svrf.New(svrf.DefaultConfig())
	if err != nil {
		panic(err) // static config
	}
	opt := svrf.DefaultTrainOptions()
	opt.Epochs = 2
	opt.Seed = trainSeed
	m.Train(windows, opt)
	return m
}

// generate builds a trial's inputs. windowDur is one window's share of
// --seconds.
func generate(sp spec, seed int64, windowDur time.Duration) (*inputs, error) {
	in := &inputs{sampled: map[ais.MMSI]bool{}}
	var world *fleetsim.World
	if sp.strait {
		in.fc = events.NewKinematicForecaster()
		world = fleetsim.DenseStraitWorld(sp.vessels, seed)
	} else {
		start := time.Now()
		in.fc = events.SVRFForecaster{Model: trainModel()}
		in.trainDur = time.Since(start)
		world = fleetsim.NewWorld(fleetsim.Config{
			Vessels: sp.vessels, Seed: seed, Region: geo.EuropeanCoverage, KeepSailing: true,
		})
	}
	feedLines := fleetsim.NewWireFeed(world)
	asm := ais.NewAssembler()
	seen := map[ais.MMSI]bool{}

	line, ok := feedLines.Next()
	if !ok {
		return nil, fmt.Errorf("%s: empty fleet", sp.name)
	}
	// next decodes the current line and advances to the following one.
	next := func() (ais.Message, error) {
		msg, err := decodeLine(asm, line.Line, line.At)
		if err != nil {
			return nil, err
		}
		if r, isPos := msg.(ais.PositionReport); isPos {
			seen[r.MMSI] = true
		}
		if line, ok = feedLines.Next(); !ok {
			return nil, fmt.Errorf("%s: the simulated fleet stopped transmitting", sp.name)
		}
		return msg, nil
	}

	for warmEnd := line.At.Add(sp.warmup); line.At.Before(warmEnd); {
		msg, err := next()
		if err != nil {
			return nil, err
		}
		if msg == nil {
			continue
		}
		in.warm = append(in.warm, msg)
		if _, isPos := msg.(ais.PositionReport); isPos {
			in.warmPos++
		}
	}

	want := int(sp.backlogPerSec * windowDur.Seconds())
	if sp.live {
		want = int(sp.rate * windowDur.Seconds())
	}
	want = max(want, 1)
	lineNo := uint64(0)
	arrivals := rand.New(rand.NewSource(seed ^ 0xa11))
	for range sp.windows {
		w := &window{}
		var due []time.Duration
		if sp.live {
			due = arrivalTimes(arrivals, want, windowDur)
		}
		for w.positions < want {
			lineNo++
			wl := wireLine{line: line.Line, at: line.At, id: 1<<63 | lineNo}
			if sp.live {
				// A static line goes out with the position it precedes.
				wl.due = due[w.positions]
			}
			msg, err := next()
			if err != nil {
				return nil, err
			}
			if r, isPos := msg.(ais.PositionReport); isPos {
				wl.pos, wl.report, wl.id = true, r, reportID(r.MMSI, r.Timestamp)
				w.positions++
			}
			w.lines = append(w.lines, wl)
		}
		in.windows = append(in.windows, w)
	}

	fleet := make([]ais.MMSI, 0, len(seen))
	for m := range seen {
		fleet = append(fleet, m)
	}
	sort.Slice(fleet, func(i, j int) bool { return fleet[i] < fleet[j] })
	for i, m := range fleet {
		if i%sp.sampleEvery == 0 {
			in.sampled[m] = true
		}
	}
	if sp.readRate > 0 {
		readSchedule(sp, seed, windowDur, in)
	}
	return in, nil
}

// decodeLine is the receiver's decode step: parse, checksum and
// reassemble one sentence. A nil message means a fragment is pending.
func decodeLine(asm *ais.Assembler, line string, at time.Time) (ais.Message, error) {
	s, err := ais.ParseSentence(line)
	if err != nil {
		return nil, err
	}
	return asm.Push(s, at)
}

// readSchedule pre-generates each window's open-loop read mix: random
// due times, a seeded uniform choice of endpoint, random Europe
// sub-boxes and point reads of vessels the warm-up made visible.
func readSchedule(sp spec, seed int64, windowDur time.Duration, in *inputs) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var known []ais.MMSI
	have := map[ais.MMSI]bool{}
	for _, m := range in.warm {
		if r, ok := m.(ais.PositionReport); ok && !have[r.MMSI] {
			have[r.MMSI] = true
			known = append(known, r.MMSI)
		}
	}
	n := int(sp.readRate * windowDur.Seconds())
	box := geo.EuropeanCoverage
	for _, w := range in.windows {
		w.reads = make([]readReq, n)
		due := arrivalTimes(rng, n, windowDur)
		for i := range w.reads {
			r := readReq{due: due[i], kind: readKind(rng.Intn(int(nReadKinds)))}
			switch r.kind {
			case readVessels:
				r.path = "/api/vessels"
			case readVesselsBBox:
				h, w := 2+rng.Float64()*6, 2+rng.Float64()*10
				lat := box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat-h)
				lon := box.MinLon + rng.Float64()*(box.MaxLon-box.MinLon-w)
				r.path = "/api/vessels?bbox=" + ftoa(lat) + "," + ftoa(lon) + "," + ftoa(lat+h) + "," + ftoa(lon+w)
			case readVesselPoint:
				r.path = "/api/vessels/" + known[rng.Intn(len(known))].String()
			case readEvents:
				r.path = "/api/events"
			case readRegions:
				r.path = "/api/regions"
			}
			w.reads[i] = r
		}
	}
}

// arrivalTimes returns n sorted due times drawn uniformly over the
// window: arrivals of independent senders (a Poisson process holding n
// events). Evenly spaced sends would lock in phase with the views'
// 100 ms refresh and make its freshness depend on one random offset.
func arrivalTimes(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'f', 3, 64) }
