package pipeline

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seatwin/internal/congestion"
	"seatwin/internal/events"
	"seatwin/internal/geo"
	"seatwin/internal/views"
)

// newViewsPipeline builds a pipeline serving from materialized views
// (manual refresh so tests control epochs), with a port configured so
// the congestion rollup is wired.
func newViewsPipeline(t *testing.T) (*Pipeline, *views.Views) {
	t.Helper()
	v := views.New(views.Config{RefreshInterval: -1})
	t.Cleanup(v.Close)
	cfg := DefaultConfig(events.NewKinematicForecaster())
	cfg.Views = v
	cfg.Ports = []congestion.Port{{
		Name: "Piraeus", Pos: geo.Point{Lat: 37.942, Lon: 23.646},
		Radius: 3000, Capacity: 2,
	}}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Shutdown(2 * time.Second) })
	return p, v
}

func TestViewsServingPath(t *testing.T) {
	p, v := newViewsPipeline(t)
	base := geo.Point{Lat: 37.5, Lon: 24.5}
	feedTrack(p, 239000001, base, 90, 12, 5, 30*time.Second, t0)
	// Two close vessels so at least one proximity event exists.
	feedTrack(p, 111000001, base, 0, 8, 3, 30*time.Second, t0)
	feedTrack(p, 111000002, geo.Destination(base, 90, 200), 0, 8, 3, 30*time.Second, t0.Add(5*time.Second))
	p.Drain(5 * time.Second)
	if e := v.Refresh(); e == 0 {
		t.Fatal("refresh did not advance the epoch")
	}

	api := NewAPI(p)
	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		api.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	// /api/vessels serves the pre-encoded snapshot in the legacy shape.
	rec := get("/api/vessels")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/vessels: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var docs []struct {
		MMSI   string  `json:"mmsi"`
		Lat    float64 `json:"lat"`
		Lon    float64 `json:"lon"`
		Status string  `json:"status"`
		TS     string  `json:"ts"`
		FC     []struct {
			Lat float64 `json:"lat"`
			Lon float64 `json:"lon"`
			T   int64   `json:"t"`
		} `json:"forecast"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &docs); err != nil {
		t.Fatalf("vessels body: %v", err)
	}
	if len(docs) != 3 {
		t.Fatalf("%d vessels served, want 3", len(docs))
	}
	seen := map[string]bool{}
	for _, d := range docs {
		seen[d.MMSI] = true
		if d.TS == "" || d.Status == "" {
			t.Fatalf("incomplete doc: %+v", d)
		}
	}
	if !seen["239000001"] || !seen["111000001"] || !seen["111000002"] {
		t.Fatalf("wrong fleet: %v", seen)
	}

	// limit + bbox work on the views path.
	if rec := get("/api/vessels?limit=1"); rec.Code != http.StatusOK {
		t.Fatalf("limit=1: %d", rec.Code)
	} else {
		var one []json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil || len(one) != 1 {
			t.Fatalf("limit=1 returned %d docs (%v)", len(one), err)
		}
	}
	// A box away from the fleet matches nothing.
	if rec := get("/api/vessels?bbox=10,10,11,11"); strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Fatalf("far bbox body: %q", rec.Body.String())
	}

	// /api/regions serves the per-cell rollup (views-only endpoint).
	rec = get("/api/regions")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/regions: %d", rec.Code)
	}
	var cells []struct {
		Cell  string `json:"cell"`
		Count int    `json:"count"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &cells); err != nil {
		t.Fatalf("regions body: %v", err)
	}
	total := 0
	for _, c := range cells {
		if !strings.HasPrefix(c.Cell, "hex:") {
			t.Fatalf("bad cell id %q", c.Cell)
		}
		total += c.Count
	}
	if len(cells) == 0 || total != 3 {
		t.Fatalf("region rollup covers %d vessels in %d cells, want 3", total, len(cells))
	}

	// /api/events serves the windowed events view.
	rec = get("/api/events")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/events: %d", rec.Code)
	}
	var evs []struct {
		Kind string `json:"kind"`
		A    string `json:"a"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatalf("events body: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("no events served from the view")
	}

	// /api/congestion serves the pre-encoded rollup.
	rec = get("/api/congestion")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/congestion: %d", rec.Code)
	}
	var ports []struct {
		Port     string `json:"port"`
		Capacity int    `json:"capacity"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ports); err != nil {
		t.Fatalf("congestion body: %v", err)
	}
	if len(ports) != 1 || ports[0].Port != "Piraeus" || ports[0].Capacity != 2 {
		t.Fatalf("congestion rollup: %+v", ports)
	}

	// /api/stats and /metrics both carry the seatwin_views_* family.
	rec = get("/api/stats")
	var stats map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	epoch, _ := stats["seatwin_views_epoch"].(float64)
	if vessels, _ := stats["seatwin_views_vessels"].(float64); epoch < 1 || vessels != 3 {
		t.Fatalf("views stats: epoch %v vessels %v", stats["seatwin_views_epoch"], stats["seatwin_views_vessels"])
	}
	body := get("/metrics").Body.String()
	for _, m := range []string{
		"seatwin_views_epoch", "seatwin_views_refreshes_total",
		"seatwin_views_states_applied_total", "seatwin_views_snapshot_bytes",
		"seatwin_views_epoch_age_seconds", "seatwin_views_refresh_p99_seconds",
	} {
		if !strings.Contains(body, m) {
			t.Fatalf("metrics missing %s", m)
		}
	}
}

// TestViewsStalenessAfterNewReports: a report ingested after the last
// refresh is invisible until the next epoch — and visible right after.
func TestViewsStalenessAfterNewReports(t *testing.T) {
	p, v := newViewsPipeline(t)
	feedTrack(p, 239000001, geo.Point{Lat: 37.5, Lon: 24.5}, 90, 12, 2, 30*time.Second, t0)
	p.Drain(5 * time.Second)
	v.Refresh()
	if n := v.Vessels().Len(); n != 1 {
		t.Fatalf("%d vessels in snapshot, want 1", n)
	}
	feedTrack(p, 239000002, geo.Point{Lat: 38.0, Lon: 25.0}, 90, 12, 2, 30*time.Second, t0)
	p.Drain(5 * time.Second)
	if n := v.Vessels().Len(); n != 1 {
		t.Fatalf("snapshot changed without a refresh: %d vessels", n)
	}
	v.Refresh()
	if n := v.Vessels().Len(); n != 2 {
		t.Fatalf("%d vessels after refresh, want 2", n)
	}
}

// TestDefaultViewsServeReads: a pipeline built without Config.Views
// builds its own, serves every list endpoint from it once refreshed,
// and closes it on Shutdown.
func TestDefaultViewsServeReads(t *testing.T) {
	cfg := DefaultConfig(events.NewKinematicForecaster())
	cfg.Ports = []congestion.Port{{
		Name: "Piraeus", Pos: geo.Point{Lat: 37.942, Lon: 23.646},
		Radius: 3000, Capacity: 2,
	}}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := p.Views()
	if v == nil {
		t.Fatal("no views built for a nil Config.Views")
	}
	base := geo.Point{Lat: 37.5, Lon: 24.5}
	feedTrack(p, 111000001, base, 0, 8, 3, 30*time.Second, t0)
	feedTrack(p, 111000002, geo.Destination(base, 90, 200), 0, 8, 3, 30*time.Second, t0.Add(5*time.Second))
	p.Drain(5 * time.Second)
	v.Refresh()

	api := NewAPI(p)
	for _, path := range []string{"/api/vessels", "/api/events", "/api/regions", "/api/congestion"} {
		rec := httptest.NewRecorder()
		api.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
		}
		var docs []json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &docs); err != nil {
			t.Fatalf("%s body: %v", path, err)
		}
		if len(docs) == 0 {
			t.Fatalf("%s served nothing", path)
		}
	}

	p.Shutdown(2 * time.Second)
	if !refresherStopped(v) {
		t.Fatal("Shutdown left the views it built refreshing")
	}
}

// TestCallerViewsOutliveShutdown: a caller-supplied Views is the
// caller's to close; Shutdown leaves its refresher running.
func TestCallerViewsOutliveShutdown(t *testing.T) {
	v := views.New(views.Config{RefreshInterval: 5 * time.Millisecond})
	defer v.Close()
	cfg := DefaultConfig(events.NewKinematicForecaster())
	cfg.Views = v
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Views() != v {
		t.Fatal("pipeline replaced the caller's views")
	}
	p.Shutdown(2 * time.Second)
	if refresherStopped(v) {
		t.Fatal("Shutdown closed the caller's views")
	}
}

// refresherStopped reports whether v's background refresher has stopped:
// its refresh count stays put over many refresh intervals.
func refresherStopped(v *views.Views) bool {
	before := v.Stats().Refreshes
	time.Sleep(300 * time.Millisecond)
	return v.Stats().Refreshes == before
}

// TestBBoxValidation: malformed boxes are client errors on the views
// serving path.
func TestBBoxValidation(t *testing.T) {
	t.Run("views", func(t *testing.T) {
		p, _ := newViewsPipeline(t)
		api := NewAPI(p)
		for _, tc := range []struct {
			path string
			want int
		}{
			{"/api/vessels?bbox=1,2,3", http.StatusBadRequest},   // wrong arity
			{"/api/vessels?bbox=a,2,3,4", http.StatusBadRequest}, // non-numeric
			{"/api/vessels?bbox=3,2,1,4", http.StatusBadRequest}, // minLat > maxLat
			{"/api/vessels?bbox=1,4,2,3", http.StatusBadRequest}, // minLon > maxLon
			{"/api/vessels?bbox=1,2,3,4&limit=0", http.StatusBadRequest},
			{"/api/vessels?bbox=1,2,3,4", http.StatusOK},
			{"/api/vessels?bbox=%2010%20,%2010%20,11,11", http.StatusOK}, // spaces tolerated
		} {
			rec := httptest.NewRecorder()
			api.Handler().ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
			if rec.Code != tc.want {
				t.Errorf("GET %s: status %d, want %d", tc.path, rec.Code, tc.want)
			}
		}
	})
}
