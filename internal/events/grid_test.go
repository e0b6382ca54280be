package events

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/fleetsim"
	"seatwin/internal/geo"
	"seatwin/internal/hexgrid"
)

// The grid detectors are fast paths, not approximations: on identical
// input streams they must emit the identical event set as the map-scan
// oracles — same pairs, same timestamps, distances and positions within
// 1e-9 (in practice bitwise), same cooldown suppression. These tests
// drive both side by side and compare per update.

func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		if !a.At.Equal(b.At) {
			return a.At.Before(b.At)
		}
		return a.Meters < b.Meters
	})
}

func compareEventSets(t *testing.T, label string, scan, grid []Event) {
	t.Helper()
	if len(scan) != len(grid) {
		t.Fatalf("%s: oracle emitted %d events, grid %d\noracle: %v\ngrid:   %v",
			label, len(scan), len(grid), scan, grid)
	}
	sortEvents(scan)
	sortEvents(grid)
	for i := range scan {
		a, b := scan[i], grid[i]
		if a.Kind != b.Kind || a.A != b.A || a.B != b.B ||
			!a.At.Equal(b.At) || !a.DetectedAt.Equal(b.DetectedAt) {
			t.Fatalf("%s: event %d differs\noracle: %+v\ngrid:   %+v", label, i, a, b)
		}
		if math.Abs(a.Meters-b.Meters) > 1e-9 ||
			math.Abs(a.Pos.Lat-b.Pos.Lat) > 1e-9 || math.Abs(a.Pos.Lon-b.Pos.Lon) > 1e-9 {
			t.Fatalf("%s: event %d numeric mismatch\noracle: %+v\ngrid:   %+v", label, i, a, b)
		}
	}
}

// runProximityParity replays a fleetsim world through per-cell oracle
// and grid detectors (sharded by res-9 hexgrid cell exactly like the
// pipeline's cell actors) and returns the number of events both sides
// agreed on.
func runProximityParity(t *testing.T, w *fleetsim.World, d time.Duration) int {
	t.Helper()
	cfg := DefaultProximityConfig()
	oracles := map[hexgrid.Cell]*ProximityDetector{}
	grids := map[hexgrid.Cell]*GridProximityDetector{}
	events := 0
	w.Run(d, func(r fleetsim.Report) {
		pos := geo.Point{Lat: r.Pos.Lat, Lon: r.Pos.Lon}
		cell := hexgrid.LatLonToCell(pos, 9)
		o := oracles[cell]
		if o == nil {
			o = NewProximityDetector(cfg)
			oracles[cell] = o
		}
		g := grids[cell]
		if g == nil {
			g = NewGridProximityDetector(cfg)
			grids[cell] = g
		}
		sc := append([]Event(nil), o.Update(r.Pos.MMSI, pos, r.At)...)
		gr := append([]Event(nil), g.Update(r.Pos.MMSI, pos, r.At)...)
		compareEventSets(t, "proximity", sc, gr)
		events += len(sc)
	})
	for cell, o := range oracles {
		if g := grids[cell]; o.Size() != g.Size() {
			t.Fatalf("cell %v: oracle tracks %d vessels, grid %d", cell, o.Size(), g.Size())
		}
	}
	return events
}

func TestGridProximityParityDenseStrait(t *testing.T) {
	w := fleetsim.DenseStraitWorld(150, 7)
	events := runProximityParity(t, w, 6*time.Minute)
	if events == 0 {
		t.Fatal("dense strait produced no proximity events; parity run is vacuous")
	}
}

func TestGridProximityParitySparseAegean(t *testing.T) {
	w := fleetsim.NewWorld(fleetsim.Config{
		Vessels: 50, Seed: 11, Region: geo.AegeanSea, KeepSailing: true,
	})
	runProximityParity(t, w, 10*time.Minute)
}

// collisionFleet is a deterministic set of crossing straight-line
// tracks; forecasts are the 3-point kinematic shape (now, +2 min,
// +4 min) so oracle pair checks stay affordable under -race.
type collisionFleet struct {
	mmsi []ais.MMSI
	pos  []geo.Point
	cog  []float64
	sog  []float64
}

func newCollisionFleet(n int, radiusMeters float64, seed int64) *collisionFleet {
	rng := rand.New(rand.NewSource(seed))
	center := geo.Point{Lat: 1.2, Lon: 103.8}
	f := &collisionFleet{
		mmsi: make([]ais.MMSI, n),
		pos:  make([]geo.Point, n),
		cog:  make([]float64, n),
		sog:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		f.mmsi[i] = ais.MMSI(200000000 + i)
		f.pos[i] = geo.Destination(center, rng.Float64()*360, rng.Float64()*radiusMeters)
		f.cog[i] = rng.Float64() * 360
		f.sog[i] = 8 + rng.Float64()*10
	}
	return f
}

func (f *collisionFleet) forecast(i int, now time.Time) Forecast {
	return Forecast{MMSI: f.mmsi[i], Points: []ForecastPoint{
		{Pos: f.pos[i], At: now},
		{Pos: geo.DeadReckon(f.pos[i], f.sog[i], f.cog[i], 120), At: now.Add(2 * time.Minute)},
		{Pos: geo.DeadReckon(f.pos[i], f.sog[i], f.cog[i], 240), At: now.Add(4 * time.Minute)},
	}}
}

func (f *collisionFleet) advance(i int, dtSeconds float64) {
	f.pos[i] = geo.DeadReckon(f.pos[i], f.sog[i], f.cog[i], dtSeconds)
}

func runCollisionParity(t *testing.T, cfg CollisionConfig, fleet *collisionFleet, steps int) int {
	t.Helper()
	oracle := NewDetector(cfg, 10*time.Minute)
	grid := NewGridDetector(cfg, 10*time.Minute)
	events := 0
	for step := 0; step < steps; step++ {
		now := t0.Add(time.Duration(step) * 30 * time.Second)
		for i := range fleet.mmsi {
			fleet.advance(i, 30)
			f := fleet.forecast(i, now)
			sc := append([]Event(nil), oracle.Update(f, now)...)
			gr := append([]Event(nil), grid.Update(NewTrack(f), now)...)
			compareEventSets(t, "collision", sc, gr)
			events += len(sc)
		}
	}
	if oracle.Size() != grid.Size() {
		t.Fatalf("oracle tracks %d forecasts, grid %d", oracle.Size(), grid.Size())
	}
	return events
}

func TestGridCollisionParityDense(t *testing.T) {
	fleet := newCollisionFleet(16, 3000, 42)
	events := runCollisionParity(t, DefaultCollisionConfig(), fleet, 6)
	if events == 0 {
		t.Fatal("dense fleet produced no collision events; parity run is vacuous")
	}
}

func TestGridCollisionParitySparse(t *testing.T) {
	// Vessels ~80 km apart: the circle prune must reject everything and
	// the oracle must agree that nothing pairs.
	fleet := newCollisionFleet(20, 400000, 9)
	events := runCollisionParity(t, DefaultCollisionConfig(), fleet, 4)
	if events != 0 {
		t.Fatalf("sparse fleet unexpectedly produced %d events", events)
	}
}

// A temporal threshold that is not a whole number of checkSteps
// disables the precomputed-track sweep; the fallback must still match
// the oracle exactly.
func TestGridCollisionParityFallback(t *testing.T) {
	cfg := CollisionConfig{TemporalThreshold: 100 * time.Second, SpatialThresholdMeters: 1852}
	fleet := newCollisionFleet(10, 3000, 17)
	grid := NewGridDetector(cfg, 0)
	if grid.fastPath {
		t.Fatal("100s threshold should not take the tick-aligned fast path")
	}
	events := runCollisionParity(t, cfg, fleet, 4)
	if events == 0 {
		t.Fatal("fallback scenario produced no events; parity run is vacuous")
	}
}

// Satellite regression: the oracle's cooldown map grows without bound
// (one entry per pair ever seen). The grid detector's time-bucketed
// expiry must keep both the cooldown map and the tracked-vessel arena
// bounded by the *active* population under pair churn.
func TestGridProximityCooldownBoundedUnderChurn(t *testing.T) {
	cfg := ProximityConfig{ThresholdMeters: 500, TimeWindow: time.Minute, Cooldown: 30 * time.Second}
	g := NewGridProximityDetector(cfg)
	base := geo.Point{Lat: 1.2, Lon: 103.5}
	emitted := 0
	const pairs = 5000
	for i := 0; i < pairs; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		// A fresh pair each second, 0.05° (~5.6 km) from its neighbours
		// so pairs never cross-trigger; positions recycle every 400 s,
		// long after both the cooldown and the staleness horizon.
		pos := geo.Point{Lat: base.Lat, Lon: base.Lon + float64(i%400)*0.05}
		a := ais.MMSI(300000000 + 2*i)
		b := ais.MMSI(300000000 + 2*i + 1)
		g.Update(a, pos, at)
		emitted += len(g.Update(b, pos, at))
	}
	if emitted != pairs {
		t.Fatalf("churn emitted %d events, want one per pair (%d)", emitted, pairs)
	}
	// Live cooldown entries: only pairs within one Cooldown plus one
	// expiry bucket (~38 s) of the end. The oracle would hold all 5000.
	if cs := g.CooldownSize(); cs > 200 {
		t.Fatalf("cooldown map not bounded under churn: %d live entries", cs)
	}
	// Tracked vessels: only those within the 2×TimeWindow staleness
	// horizon (~240 of 10000 seen).
	if sz := g.Size(); sz > 400 {
		t.Fatalf("vessel arena not bounded under churn: %d live slots", sz)
	}
}

// Satellite regression: a full cell's update cost must not scale with
// the number of expired entries. After a mass expiry, the eviction ring
// must be fully drained (one amortized pass) and subsequent updates
// must inspect zero dead candidates.
func TestGridCollisionExpiryCostIndependentOfDeadEntries(t *testing.T) {
	d := NewGridDetector(DefaultCollisionConfig(), 10*time.Minute)
	mk := func(mmsi int, pos geo.Point, now time.Time) Forecast {
		return Forecast{MMSI: ais.MMSI(mmsi), Points: []ForecastPoint{
			{Pos: pos, At: now},
			{Pos: geo.DeadReckon(pos, 12, 45, 120), At: now.Add(2 * time.Minute)},
			{Pos: geo.DeadReckon(pos, 12, 45, 240), At: now.Add(4 * time.Minute)},
		}}
	}
	// 3000 forecasts on a ~77 km grid: far enough apart that no probe
	// ever finds a candidate, so they are pure dead weight once stale.
	const dead = 3000
	for i := 0; i < dead; i++ {
		pos := geo.Point{Lat: 10 + float64(i/100)*0.7, Lon: -170 + float64(i%100)*0.7}
		d.Update(NewTrack(mk(600000000+i, pos, t0)), t0)
	}
	if d.Stats().Candidates != 0 {
		t.Fatalf("spread-out prepopulation should probe no candidates, got %d", d.Stats().Candidates)
	}
	preEvicted := d.Stats().Evicted
	now := t0.Add(11 * time.Minute)
	d.Update(NewTrack(mk(700000000, geo.Point{Lat: 50, Lon: 10}, now)), now)
	if got := d.Stats().Evicted - preEvicted; got != dead {
		t.Fatalf("amortized drain evicted %d entries, want %d", got, dead)
	}
	if d.ring.n != 1 { // only the fresh vessel's own record remains
		t.Fatalf("eviction ring holds %d records after drain, want 1", d.ring.n)
	}
	if d.Size() != 1 {
		t.Fatalf("detector tracks %d forecasts after expiry, want 1", d.Size())
	}
	// Post-expiry updates (again spread out) must do zero dead work.
	preCand := d.Stats().Candidates
	for i := 0; i < 50; i++ {
		pos := geo.Point{Lat: 50 + float64(i+1)*0.7, Lon: 10}
		now = now.Add(time.Second)
		d.Update(NewTrack(mk(700000001+i, pos, now)), now)
	}
	if got := d.Stats().Candidates - preCand; got != 0 {
		t.Fatalf("updates after mass expiry inspected %d candidates, want 0", got)
	}
}
