package events

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"seatwin/internal/geo"
)

// NewTrack's samples must be bitwise the positions interpAt gives at
// each tick, including the degenerate branches: a zero-length time span
// between two points and a stationary (zero-distance) segment.
func TestNewTrackSamplesMatchInterpAt(t *testing.T) {
	base := geo.Point{Lat: 37.5, Lon: 24.5}
	moving := lineForecast(1, base, 45, 12, t0.Add(7*time.Second))
	still := lineForecast(2, base, 0, 0, t0.Add(3*time.Second))
	dup := lineForecast(3, base, 200, 15, t0)
	dup.Points[1].At = dup.Points[0].At // the first tick lands on the zero span
	for _, f := range []Forecast{moving, still, dup} {
		tr := NewTrack(f)
		if n := tr.lastTick - tr.firstTick + 1; n != int64(len(tr.samples)) || n < 100 {
			t.Fatalf("mmsi %d: %d samples for ticks [%d, %d]", f.MMSI, len(tr.samples), tr.firstTick, tr.lastTick)
		}
		for k := tr.firstTick; k <= tr.lastTick; k++ {
			want, ok := interpAt(f, tickTime(k))
			got := tr.samples[k-tr.firstTick]
			if !ok || math.Float64bits(got.Lat) != math.Float64bits(want.Lat) ||
				math.Float64bits(got.Lon) != math.Float64bits(want.Lon) {
				t.Fatalf("mmsi %d tick %d: sample %v, interpAt %v (ok=%v)", f.MMSI, k, got, want, ok)
			}
		}
	}
	if tr := NewTrack(Forecast{MMSI: 4}); len(tr.samples) != 0 || tr.lastTick >= tr.firstTick {
		t.Fatalf("empty forecast sampled: %+v", tr)
	}
}

// One *Track fed to several detectors on separate goroutines — the
// collision fan-out — must give each detector exactly the events it
// gives when fed its own NewTrack of the same forecast, and must come
// out unmodified. Each detector starts at a different point of the
// stream, so their micro-grid origins differ as they do between cells.
// Run under -race this also checks the sharing is read-only.
func TestSharedTrackAcrossDetectors(t *testing.T) {
	const detectors = 4
	fleet := newCollisionFleet(16, 3000, 42)
	type step struct {
		f   Forecast
		now time.Time
	}
	var stream []step
	for s := 0; s < 6; s++ {
		now := t0.Add(time.Duration(s) * 30 * time.Second)
		for i := range fleet.mmsi {
			fleet.advance(i, 30)
			stream = append(stream, step{fleet.forecast(i, now), now})
		}
	}
	shared := make([]*Track, len(stream))
	before := make([]Track, len(stream))
	for i, st := range stream {
		shared[i] = NewTrack(st.f)
		before[i] = *shared[i]
		before[i].f.Points = append([]ForecastPoint(nil), shared[i].f.Points...)
		before[i].samples = append([]geo.Point(nil), shared[i].samples...)
	}

	run := func(from int, track func(i int) *Track) []Event {
		d := NewGridDetector(DefaultCollisionConfig(), 10*time.Minute)
		var out []Event
		for i := from; i < len(stream); i++ {
			out = append(out, d.Update(track(i), stream[i].now)...)
		}
		return out
	}
	got := make([][]Event, detectors)
	var wg sync.WaitGroup
	for g := 0; g < detectors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = run(g*3, func(i int) *Track { return shared[i] })
		}(g)
	}
	wg.Wait()

	for g := 0; g < detectors; g++ {
		want := run(g*3, func(i int) *Track { return NewTrack(stream[i].f) })
		if len(want) == 0 {
			t.Fatalf("detector %d: no collision events; the check is vacuous", g)
		}
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("detector %d: shared track gave %d events, own tracks %d\nshared: %v\nown:    %v",
				g, len(got[g]), len(want), got[g], want)
		}
	}
	for i, tr := range shared {
		if !reflect.DeepEqual(*tr, before[i]) {
			t.Fatalf("track %d modified by the detectors", i)
		}
	}
}
