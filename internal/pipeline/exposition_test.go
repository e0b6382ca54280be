package pipeline

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"seatwin/internal/broker"
	"seatwin/internal/chaos"
	"seatwin/internal/cluster"
	"seatwin/internal/events"
	"seatwin/internal/feed"
	"seatwin/internal/geo"
	"seatwin/internal/kvstore"
)

// newFullyWiredAPI builds a pipeline with every optional telemetry
// source configured — a feed hub with one relay tier, a chaos
// injector, an output broker with one external consumer group, and one
// cluster worker — feeds it a close pair, and returns its API.
func newFullyWiredAPI(t *testing.T) *API {
	t.Helper()
	store := kvstore.New()
	t.Cleanup(func() { store.Close() })
	coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Partitions:       8,
		HeartbeatTimeout: 5 * time.Second,
		SweepInterval:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	hub := feed.NewHub(feed.Options{})
	t.Cleanup(hub.Close)
	relay, err := hub.NewRelay([]string{feed.TopicProximity}, feed.RelayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(relay.Close)
	out := broker.New()
	in := chaos.New(chaos.Policy{Seed: 1})
	p := newClusterWorker(t, store, broker.New(), coord, "w1", events.NewKinematicForecaster(), in, func(c *Config) {
		c.Feed = hub
		c.OutputBroker = out
	})
	t.Cleanup(func() { p.Shutdown(5 * time.Second) })
	if _, err := out.Subscribe("seatwin-states", "external"); err != nil {
		t.Fatal(err)
	}
	base := geo.Point{Lat: 37.5, Lon: 24.5}
	feedTrack(p, 960000001, base, 90, 10, 3, 30*time.Second, t0)
	feedTrack(p, 960000002, geo.Destination(base, 90, 200), 90, 10, 3, 30*time.Second, t0.Add(2*time.Second))
	p.Drain(5 * time.Second)
	return NewAPI(p)
}

func scrape(t *testing.T, api *API, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	api.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("%s: status %d", path, rec.Code)
	}
	return rec.Body.String()
}

// metricTypes maps every "# TYPE" family in a text exposition to its
// type.
func metricTypes(body string) map[string]string {
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
	}
	return types
}

// TestMetricsNameSnapshot locks the /metrics family names and types
// dashboards depend on: every family in testdata/metrics_names.txt
// (recorded when the registry replaced the hand-written exposition)
// must still be exported with the same type. New families may be
// added freely.
func TestMetricsNameSnapshot(t *testing.T) {
	raw, err := os.ReadFile("testdata/metrics_names.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := metricTypes(scrape(t, newFullyWiredAPI(t), "/metrics"))
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("malformed snapshot line %q", line)
		}
		if got[f[0]] != f[1] {
			t.Errorf("%s: exported as %q, snapshot says %q", f[0], got[f[0]], f[1])
		}
	}
}

// TestStatsAndMetricsAgree: /api/stats and /metrics render the same
// registry, so the top-level keys of the one are exactly the families
// of the other.
func TestStatsAndMetricsAgree(t *testing.T) {
	api := newFullyWiredAPI(t)
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(scrape(t, api, "/api/stats")), &doc); err != nil {
		t.Fatal(err)
	}
	var statsKeys, metricNames []string
	for k := range doc {
		statsKeys = append(statsKeys, k)
	}
	for k := range metricTypes(scrape(t, api, "/metrics")) {
		metricNames = append(metricNames, k)
	}
	sort.Strings(statsKeys)
	sort.Strings(metricNames)
	if strings.Join(statsKeys, " ") != strings.Join(metricNames, " ") {
		t.Fatalf("endpoints disagree:\n/api/stats: %v\n/metrics:   %v", statsKeys, metricNames)
	}
}
