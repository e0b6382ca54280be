package pipeline

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seatwin/internal/events"
	"seatwin/internal/geo"
)

// feedClosePair ingests two vessels sailing ~200 m apart so both the
// proximity and collision detectors see real candidate pairs.
func feedClosePair(p *Pipeline, from time.Time) {
	base := geo.Point{Lat: 37.5, Lon: 24.5}
	feedTrack(p, 930000001, base, 90, 10, 4, 30*time.Second, from)
	feedTrack(p, 930000002, geo.Destination(base, 90, 200), 90, 10, 4, 30*time.Second, from.Add(2*time.Second))
}

func TestDetectionMetricsExposed(t *testing.T) {
	p := newTestPipeline(t)
	feedClosePair(p, t0)
	p.Drain(5 * time.Second)

	s := p.Stats()
	if s.ProximityDetection.UpdateLatency.Count == 0 {
		t.Fatal("no proximity detector updates recorded")
	}
	if s.CollisionDetection.UpdateLatency.Count == 0 {
		t.Fatal("no collision detector updates recorded")
	}
	if s.ProximityDetection.Tracked <= 0 || s.CollisionDetection.Tracked <= 0 {
		t.Fatalf("occupancy gauges not maintained: prox=%d coll=%d",
			s.ProximityDetection.Tracked, s.CollisionDetection.Tracked)
	}
	// Two vessels within threshold: the grid paths must have probed and
	// checked candidate pairs.
	if s.ProximityDetection.Candidates == 0 || s.ProximityDetection.Checked == 0 {
		t.Fatalf("proximity candidate funnel empty: %+v", s.ProximityDetection)
	}
	if s.CollisionDetection.Candidates == 0 {
		t.Fatalf("collision candidate funnel empty: %+v", s.CollisionDetection)
	}
	if len(p.EventLog().ByKind(events.KindProximity)) == 0 {
		t.Fatal("close pair produced no proximity event")
	}

	api := NewAPI(p)
	rec := httptest.NewRecorder()
	api.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, series := range []string{
		"seatwin_events_proximity_update_seconds_count",
		"seatwin_events_collision_update_seconds_count",
		"seatwin_events_proximity_candidates_total",
		"seatwin_events_collision_pairs_checked_total",
		"seatwin_events_proximity_evictions_total",
		"seatwin_events_collision_tracked",
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("/metrics missing %s", series)
		}
	}

	rec = httptest.NewRecorder()
	api.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/stats", nil))
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"proximity", "collision"} {
		name := "seatwin_events_" + fam + "_update_seconds"
		d, _ := doc[name].(map[string]any)
		if d == nil {
			t.Fatalf("/api/stats missing %s", name)
		}
		if n, _ := d["count"].(float64); n == 0 {
			t.Fatalf("%s reports zero updates: %v", name, d)
		}
	}
}

// The occupancy gauge must return to zero when idle cells passivate:
// the Stopping decrement runs before the passivator sees the message.
func TestDetectionTrackedGaugeDropsOnPassivation(t *testing.T) {
	cfg := DefaultConfig(events.NewKinematicForecaster())
	cfg.CellIdleTimeout = 150 * time.Millisecond
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)

	feedClosePair(p, t0)
	p.Drain(5 * time.Second)
	if s := p.Stats(); s.ProximityDetection.Tracked <= 0 || s.CollisionDetection.Tracked <= 0 {
		t.Fatalf("gauges empty before passivation: %+v / %+v",
			s.ProximityDetection, s.CollisionDetection)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		s := p.Stats()
		if s.ProximityDetection.Tracked == 0 && s.CollisionDetection.Tracked == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tracked gauges did not drop on passivation: prox=%d coll=%d",
				s.ProximityDetection.Tracked, s.CollisionDetection.Tracked)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
