package pipeline

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"seatwin/internal/geo"
	"seatwin/internal/lvrf"
)

// API is the middleware HTTP layer of Figure 2: it serves the UI the
// state the writer actors published — list reads from the materialized
// views, single-vessel reads from the kvstore they persist into.
type API struct {
	p   *Pipeline
	srv *http.Server
	mux *http.ServeMux

	mu sync.Mutex
	ln net.Listener
}

// NewAPI builds the handler around a pipeline.
func NewAPI(p *Pipeline) *API {
	a := &API{p: p}
	mux := http.NewServeMux()
	a.mux = mux
	mux.HandleFunc("/api/health", a.handleHealth)
	mux.HandleFunc("/api/stats", a.handleStats)
	mux.HandleFunc("/api/vessels", a.handleVessels)
	mux.HandleFunc("/api/vessels/", a.handleVessel)
	mux.HandleFunc("/api/events", a.handleEvents)
	mux.HandleFunc("/api/regions", a.handleRegions)
	mux.HandleFunc("/api/series", a.handleSeries)
	mux.HandleFunc("/api/congestion", a.handleCongestion)
	mux.HandleFunc("/api/route", a.handleRoute)
	mux.HandleFunc("/api/stream", a.handleStream)
	mux.HandleFunc("/metrics", a.handleMetrics)
	a.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	return a
}

// Handler exposes the mux (tests drive it via httptest).
func (a *API) Handler() http.Handler { return a.srv.Handler }

// ListenAndServe binds addr and serves until Close.
func (a *API) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.ln = ln
	a.mu.Unlock()
	return a.srv.Serve(ln)
}

// Addr returns the bound address, or nil before ListenAndServe.
func (a *API) Addr() net.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ln == nil {
		return nil
	}
	return a.ln.Addr()
}

// Close shuts the server down.
func (a *API) Close() error { return a.srv.Close() }

// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/
// on the API mux. Off by default: profiling endpoints expose internals
// (and a CPU-profile request costs real cycles), so deployments opt in
// explicitly (the seatwin binary's -pprof flag). Call before
// ListenAndServe.
func (a *API) EnablePprof() {
	a.mux.HandleFunc("/debug/pprof/", pprof.Index)
	a.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	a.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	a.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	a.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// logAPIWriteError records a response body that failed mid-write.
func logAPIWriteError(body string, err error) {
	slog.Warn("write response", "component", "api", "body", body, "err", err)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already on the wire, so no status can be changed;
		// a failed encode (almost always a client hang-up mid-body) must
		// still be visible to operators rather than vanish.
		logAPIWriteError("response", err)
	}
}

// parseLimit resolves an optional positive integer query parameter,
// failing the request with 400 on malformed input. ok=false means the
// response has been written.
func parseLimit(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return def, true
	}
	v, err := strconv.Atoi(q)
	if err != nil || v <= 0 {
		http.Error(w, fmt.Sprintf("%s must be a positive integer, got %q", name, q), http.StatusBadRequest)
		return 0, false
	}
	return v, true
}

// handleStream serves the live push feed over SSE (see internal/feed);
// 404 when the pipeline was built without a feed hub.
func (a *API) handleStream(w http.ResponseWriter, r *http.Request) {
	hub := a.p.cfg.Feed
	if hub == nil {
		http.Error(w, "live feed not configured", http.StatusNotFound)
		return
	}
	hub.SSEHandler().ServeHTTP(w, r)
}

func (a *API) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleStats serves the metrics registry as one JSON object keyed by
// series name — the same series /metrics exposes.
func (a *API) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, a.p.registry.JSON())
}

// vesselJSON is one vessel state document.
type vesselJSON struct {
	MMSI     string         `json:"mmsi"`
	Name     string         `json:"name,omitempty"`
	Lat      float64        `json:"lat"`
	Lon      float64        `json:"lon"`
	SOG      float64        `json:"sog"`
	COG      float64        `json:"cog"`
	Status   string         `json:"status"`
	At       string         `json:"ts"`
	Forecast []forecastJSON `json:"forecast,omitempty"`
}

type forecastJSON struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
	At  int64   `json:"t"`
}

func (a *API) vesselDoc(mmsi string) (vesselJSON, bool) {
	h, err := a.p.store.HGetAll("vessel:" + mmsi)
	if err != nil || len(h) == 0 {
		return vesselJSON{}, false
	}
	parse := func(s string) float64 {
		v, _ := strconv.ParseFloat(s, 64)
		return v
	}
	doc := vesselJSON{
		MMSI:   mmsi,
		Name:   h["name"],
		Lat:    parse(h["lat"]),
		Lon:    parse(h["lon"]),
		SOG:    parse(h["sog"]),
		COG:    parse(h["cog"]),
		Status: h["status"],
		At:     h["ts"],
	}
	if raw := h["forecast"]; raw != "" {
		for _, part := range strings.Split(raw, ";") {
			f := strings.Split(part, ",")
			if len(f) != 3 {
				continue
			}
			t, _ := strconv.ParseInt(f[2], 10, 64)
			doc.Forecast = append(doc.Forecast, forecastJSON{
				Lat: parse(f[0]), Lon: parse(f[1]), At: t,
			})
		}
	}
	return doc, true
}

// parseBBox resolves an optional bounding-box query parameter of the
// form "minLat,minLon,maxLat,maxLon". nil with ok=true means no box
// was requested; ok=false means a 400 has been written.
func parseBBox(w http.ResponseWriter, r *http.Request) (*geo.BBox, bool) {
	q := r.URL.Query().Get("bbox")
	if q == "" {
		return nil, true
	}
	bad := func(why string) (*geo.BBox, bool) {
		http.Error(w, fmt.Sprintf("bbox must be minLat,minLon,maxLat,maxLon (%s), got %q", why, q), http.StatusBadRequest)
		return nil, false
	}
	parts := strings.Split(q, ",")
	if len(parts) != 4 {
		return bad("four comma-separated numbers")
	}
	var vals [4]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return bad("non-numeric component")
		}
		vals[i] = v
	}
	box := &geo.BBox{MinLat: vals[0], MinLon: vals[1], MaxLat: vals[2], MaxLon: vals[3]}
	if box.MinLat > box.MaxLat || box.MinLon > box.MaxLon {
		return bad("min greater than max")
	}
	return box, true
}

func (a *API) handleVessels(w http.ResponseWriter, r *http.Request) {
	limit, ok := parseLimit(w, r, "limit", 100)
	if !ok {
		return
	}
	box, ok := parseBBox(w, r)
	if !ok {
		return
	}
	// One atomic snapshot load, pre-encoded JSON straight onto the wire
	// — no store scan, no locks, no per-request allocation.
	w.Header().Set("Content-Type", "application/json")
	if _, err := a.p.cfg.Views.Vessels().WriteJSON(w, limit, box); err != nil {
		logAPIWriteError("vessels view", err)
	}
}

// handleRegions serves the per-hex-cell traffic rollup.
func (a *API) handleRegions(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := a.p.cfg.Views.Regions().WriteJSON(w); err != nil {
		logAPIWriteError("regions view", err)
	}
}

func (a *API) handleVessel(w http.ResponseWriter, r *http.Request) {
	mmsi := strings.TrimPrefix(r.URL.Path, "/api/vessels/")
	doc, ok := a.vesselDoc(mmsi)
	if !ok {
		http.Error(w, "unknown vessel", http.StatusNotFound)
		return
	}
	writeJSON(w, doc)
}

func (a *API) handleEvents(w http.ResponseWriter, r *http.Request) {
	limit, ok := parseLimit(w, r, "limit", 100)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := a.p.cfg.Views.Events().WriteJSON(w, limit); err != nil {
		logAPIWriteError("events view", err)
	}
}

// handleRoute serves the L-VRF long-term route forecast and Patterns
// of Life for an origin/destination port pair (§4.1; Figure 4a/4b):
// GET /api/route?from=Piraeus&to=Heraklion&type=70&length=190&draught=10.5
func (a *API) handleRoute(w http.ResponseWriter, r *http.Request) {
	// Client errors (malformed/missing parameters) are diagnosed before
	// deployment state, so a 404 always means "no model here".
	q := r.URL.Query()
	from, to := q.Get("from"), q.Get("to")
	if from == "" || to == "" {
		http.Error(w, "from and to are required", http.StatusBadRequest)
		return
	}
	// Absent parameters take defaults; malformed ones are a client
	// error, not a silent fallback.
	parse := func(key string, def float64) (float64, error) {
		s := q.Get(key)
		if s == "" {
			return def, nil
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("%s must be numeric, got %q", key, s)
		}
		return v, nil
	}
	var features lvrf.Features
	shipType, errT := parse("type", 70)
	length, errL := parse("length", 190)
	draught, errD := parse("draught", 10)
	for _, err := range []error{errT, errL, errD} {
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	features = lvrf.Features{ShipType: uint8(shipType), Length: length, Draught: draught}
	model := a.p.RouteModel()
	if model == nil {
		http.Error(w, "route model not configured", http.StatusNotFound)
		return
	}
	path, err := model.ForecastRoute(from, to, features)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	type pointJSON struct {
		Lat float64 `json:"lat"`
		Lon float64 `json:"lon"`
	}
	doc := map[string]any{"from": from, "to": to}
	pts := make([]pointJSON, 0, len(path))
	for _, p := range path {
		pts = append(pts, pointJSON{Lat: p.Lat, Lon: p.Lon})
	}
	doc["route"] = pts
	if pol, err := model.PatternsOfLife(from, to); err == nil {
		doc["patterns_of_life"] = map[string]any{
			"trips":           pol.Trips,
			"distinct_mmsis":  pol.DistinctMMSIs,
			"mean_duration_s": int(pol.MeanDuration.Seconds()),
			"std_duration_s":  int(pol.StdDuration.Seconds()),
			"mean_length_m":   pol.MeanLengthM,
			"mean_speed_kn":   pol.MeanSpeedKn,
			"type_histogram":  pol.TypeHistogram,
		}
	}
	writeJSON(w, doc)
}

func (a *API) handleCongestion(w http.ResponseWriter, _ *http.Request) {
	if a.p.Congestion() == nil {
		http.Error(w, "port monitoring not configured", http.StatusNotFound)
		return
	}
	// The rollup was evaluated on the last refresh; serving it is one
	// atomic load and one write.
	w.Header().Set("Content-Type", "application/json")
	if err := a.p.cfg.Views.Congestion().WriteJSON(w); err != nil {
		logAPIWriteError("congestion view", err)
	}
}

// handleMetrics serves the metrics registry in the Prometheus text
// exposition format, so standard observability tooling can scrape the
// digital twin without an adapter.
func (a *API) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := a.p.registry.WritePrometheus(w); err != nil {
		logAPIWriteError("metrics", err)
	}
}

func (a *API) handleSeries(w http.ResponseWriter, _ *http.Request) {
	type sampleJSON struct {
		Actors int64 `json:"actors"`
		AvgUS  int64 `json:"avg_processing_us"`
	}
	series := a.p.Series()
	out := make([]sampleJSON, 0, len(series))
	for _, s := range series {
		out = append(out, sampleJSON{Actors: s.Actors, AvgUS: s.AvgProcess.Microseconds()})
	}
	writeJSON(w, out)
}
