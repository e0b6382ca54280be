package pipeline

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/events"
	"seatwin/internal/geo"
	"seatwin/internal/hexgrid"
)

var t0 = time.Date(2023, 9, 18, 9, 0, 0, 0, time.UTC)

func newTestPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := New(DefaultConfig(events.NewKinematicForecaster()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Shutdown(2 * time.Second) })
	return p
}

// feedTrack ingests a straight track of n reports, spaced gap apart.
func feedTrack(p *Pipeline, mmsi ais.MMSI, start geo.Point, cog, sog float64, n int, gap time.Duration, from time.Time) {
	for i := 0; i < n; i++ {
		at := from.Add(time.Duration(i) * gap)
		pos := geo.DeadReckon(start, sog, cog, at.Sub(from).Seconds())
		p.Ingest(ais.PositionReport{
			MMSI: mmsi, Lat: pos.Lat, Lon: pos.Lon, SOG: sog, COG: cog,
			Status: ais.StatusUnderWayEngine, Timestamp: at,
		}, at)
	}
}

func TestVesselStateReachesStore(t *testing.T) {
	p := newTestPipeline(t)
	feedTrack(p, 239000001, geo.Point{Lat: 37.5, Lon: 24.5}, 90, 12, 5, 30*time.Second, t0)
	p.Drain(5 * time.Second)

	h, err := p.Store().HGetAll("vessel:239000001")
	if err != nil || len(h) == 0 {
		t.Fatalf("state not persisted: %v %v", h, err)
	}
	if h["lat"] == "" || h["lon"] == "" || h["sog"] == "" {
		t.Fatalf("incomplete state: %v", h)
	}
	if h["status"] != ais.StatusUnderWayEngine.String() {
		t.Fatalf("status %q", h["status"])
	}
	// One report -> kinematic forecast exists immediately.
	if h["forecast"] == "" {
		t.Fatal("forecast missing from state")
	}
	if !strings.Contains(h["forecast"], ";") {
		t.Fatalf("forecast not multi-point: %q", h["forecast"])
	}
	// The active index knows the vessel.
	members, _ := p.Store().ZRangeByScore("vessels:active", 0, 1e18)
	found := false
	for _, m := range members {
		if m.Member == "239000001" {
			found = true
		}
	}
	if !found {
		t.Fatal("vessel missing from active index")
	}
}

func TestStaticInfoCachedAndJoined(t *testing.T) {
	p := newTestPipeline(t)
	p.Ingest(ais.StaticVoyage{
		MMSI: 239000002, Name: "BLUE TEST", ShipType: ais.TypeCargo,
	}, t0)
	feedTrack(p, 239000002, geo.Point{Lat: 37.5, Lon: 24.5}, 90, 12, 2, 30*time.Second, t0)
	p.Drain(5 * time.Second)

	if sv, ok := p.Static(239000002); !ok || sv.Name != "BLUE TEST" {
		t.Fatalf("static cache: %v %v", sv, ok)
	}
	h, _ := p.Store().HGetAll("vessel:239000002")
	if h["name"] != "BLUE TEST" {
		t.Fatalf("static data not joined into state: %v", h)
	}
}

func TestProximityEventDetected(t *testing.T) {
	p := newTestPipeline(t)
	base := geo.Point{Lat: 37.5, Lon: 24.5}
	// Two vessels 200 m apart reporting within seconds of each other.
	feedTrack(p, 111000001, base, 0, 8, 3, 30*time.Second, t0)
	feedTrack(p, 111000002, geo.Destination(base, 90, 200), 0, 8, 3, 30*time.Second, t0.Add(5*time.Second))
	p.Drain(5 * time.Second)

	prox := p.EventLog().ByKind(events.KindProximity)
	if len(prox) == 0 {
		t.Fatal("no proximity event detected")
	}
	e := prox[0]
	if e.Meters > p.cfg.Proximity.ThresholdMeters {
		t.Fatalf("event separation %.0f m", e.Meters)
	}
	pair := map[ais.MMSI]bool{e.A: true, e.B: true}
	if !pair[111000001] || !pair[111000002] {
		t.Fatalf("wrong pair: %v/%v", e.A, e.B)
	}
	// The event reached the store's sorted set too.
	members, _ := p.Store().ZRangeByScore("events:proximity", 0, 1e18)
	if len(members) == 0 {
		t.Fatal("proximity event not persisted")
	}
}

func TestProximityAcrossCellBorder(t *testing.T) {
	// Two vessels straddling a hexgrid cell border must still be
	// paired (the DiskCovering fanout guarantee).
	p := newTestPipeline(t)
	// Walk east until two adjacent positions 400 m apart land in
	// different res-9 cells.
	base := geo.Point{Lat: 37.5, Lon: 24.5}
	var a, b geo.Point
	found := false
	for step := 0; step < 2000; step++ {
		a = geo.Destination(base, 90, float64(step)*50)
		b = geo.Destination(a, 90, 400)
		ca := cellOf(a, p.cfg.ProximityResolution)
		cb := cellOf(b, p.cfg.ProximityResolution)
		if ca != cb {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("could not find a cell border")
	}
	feedTrack(p, 222000001, a, 0, 8, 2, 30*time.Second, t0)
	feedTrack(p, 222000002, b, 0, 8, 2, 30*time.Second, t0.Add(3*time.Second))
	p.Drain(5 * time.Second)
	if len(p.EventLog().ByKind(events.KindProximity)) == 0 {
		t.Fatal("proximity across cell border missed")
	}
}

func TestCollisionForecastDetected(t *testing.T) {
	p := newTestPipeline(t)
	meet := geo.Point{Lat: 37.5, Lon: 24.5}
	// Head-on pair meeting in ~15 minutes.
	aStart := geo.DeadReckon(meet, 12, 270, 900)
	bStart := geo.DeadReckon(meet, 12, 90, 900)
	feedTrack(p, 333000001, aStart, 90, 12, 3, 30*time.Second, t0)
	feedTrack(p, 333000002, bStart, 270, 12, 3, 30*time.Second, t0.Add(2*time.Second))
	p.Drain(5 * time.Second)

	col := p.EventLog().ByKind(events.KindCollisionForecast)
	if len(col) == 0 {
		t.Fatal("no collision forecast")
	}
	e := col[0]
	if e.At.Before(t0) || e.At.After(t0.Add(40*time.Minute)) {
		t.Fatalf("estimated collision time %v", e.At)
	}
	// Duplicate suppression: even with fanout to many cells, the pair
	// is reported once per window.
	if len(col) > 2 {
		t.Fatalf("pair reported %d times", len(col))
	}
	members, _ := p.Store().ZRangeByScore("events:collision-forecast", 0, 1e18)
	if len(members) == 0 {
		t.Fatal("collision forecast not persisted")
	}
}

func TestSwitchOffDetected(t *testing.T) {
	p := newTestPipeline(t)
	start := geo.Point{Lat: 40.0, Lon: 5.0}
	feedTrack(p, 444000001, start, 90, 10, 10, time.Minute, t0)
	// 2-hour silence, then one more report.
	late := t0.Add(10*time.Minute + 2*time.Hour)
	pos := geo.DeadReckon(start, 10, 90, late.Sub(t0).Seconds())
	p.Ingest(ais.PositionReport{
		MMSI: 444000001, Lat: pos.Lat, Lon: pos.Lon, SOG: 10, COG: 90,
		Status: ais.StatusUnderWayEngine, Timestamp: late,
	}, late)
	p.Drain(5 * time.Second)

	off := p.EventLog().ByKind(events.KindSwitchOff)
	if len(off) != 1 {
		t.Fatalf("switch-off events: %d", len(off))
	}
	if off[0].A != 444000001 {
		t.Fatalf("wrong vessel %v", off[0].A)
	}
}

func TestOutOfOrderReportsDropped(t *testing.T) {
	p := newTestPipeline(t)
	base := geo.Point{Lat: 37.5, Lon: 24.5}
	feedTrack(p, 555000001, base, 90, 12, 3, 30*time.Second, t0)
	// Replay an old report from far away: it must not clobber state.
	p.Ingest(ais.PositionReport{
		MMSI: 555000001, Lat: 10, Lon: 10, SOG: 5, COG: 0,
		Timestamp: t0.Add(-time.Hour),
	}, t0.Add(-time.Hour))
	p.Drain(5 * time.Second)
	h, _ := p.Store().HGetAll("vessel:555000001")
	if strings.HasPrefix(h["lat"], "10.") {
		t.Fatal("stale replay overwrote the state")
	}
}

func TestAPIEndpoints(t *testing.T) {
	p := newTestPipeline(t)
	p.Ingest(ais.StaticVoyage{MMSI: 666000001, Name: "API TEST"}, t0)
	feedTrack(p, 666000001, geo.Point{Lat: 37.5, Lon: 24.5}, 90, 12, 3, 30*time.Second, t0)
	base := geo.Point{Lat: 38.0, Lon: 24.0}
	feedTrack(p, 666000002, base, 0, 8, 2, 30*time.Second, t0)
	feedTrack(p, 666000003, geo.Destination(base, 90, 150), 0, 8, 2, 30*time.Second, t0.Add(2*time.Second))
	p.Drain(5 * time.Second)
	p.Views().Refresh()

	api := NewAPI(p)
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		api.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	if rec := get("/api/health"); rec.Code != 200 {
		t.Fatalf("health %d", rec.Code)
	}
	rec := get("/api/vessels/666000001")
	if rec.Code != 200 {
		t.Fatalf("vessel %d: %s", rec.Code, rec.Body)
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["name"] != "API TEST" {
		t.Fatalf("doc = %v", doc)
	}
	if doc["forecast"] == nil {
		t.Fatal("forecast missing from API doc")
	}
	if rec := get("/api/vessels/000000000"); rec.Code != 404 {
		t.Fatalf("unknown vessel -> %d", rec.Code)
	}
	rec = get("/api/vessels?limit=10")
	var list []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) < 3 {
		t.Fatalf("vessel list has %d entries", len(list))
	}
	rec = get("/api/events")
	var evs []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("no events served")
	}
	rec = get("/api/stats")
	var stats map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["seatwin_messages_total"].(float64) < 7 {
		t.Fatalf("stats = %v", stats)
	}
}

func cellOf(p geo.Point, res int) hexgrid.Cell {
	return hexgrid.LatLonToCell(p, res)
}
