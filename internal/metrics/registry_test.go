package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

func testRegistry() *Registry {
	r := NewRegistry()
	r.Counter("demo_requests_total", "requests served", func() float64 { return 7 })
	r.Gauge("demo_temperature", "current temperature", func() float64 { return -1.5 })
	r.Gauge("demo_diverged", "a value that went non-finite", func() float64 { return math.NaN() })
	r.Summary("demo_seconds", "request time", func() Snapshot {
		return Snapshot{Count: 4, Sum: time.Second, P50: 200 * time.Millisecond, P95: 400 * time.Millisecond, P99: 500 * time.Millisecond}
	})
	r.GaugeVec("demo_lag", "lag per topic and group", func() []LabeledSample {
		return []LabeledSample{{Labels: []Label{{"topic", "a"}, {"group", `g"1`}}, Value: 3}}
	})
	r.GaugeVec("demo_empty", "a family with no samples", func() []LabeledSample { return nil })
	return r
}

// TestRegistryPrometheusText checks the text rendering line by line
// against the exposition grammar, and the exact samples it carries.
func TestRegistryPrometheusText(t *testing.T) {
	var buf bytes.Buffer
	if err := testRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var (
		comment = regexp.MustCompile(`^# (HELP [a-z_]+ .+|TYPE [a-z_]+ (counter|gauge|summary))$`)
		sample  = regexp.MustCompile(`^[a-z_]+(\{([a-z_]+="([^"\\]|\\.)*",?)+\})? (NaN|[-+]?[0-9.e+-]+)$`)
	)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	for _, line := range lines {
		if !comment.MatchString(line) && !sample.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE demo_requests_total counter", "demo_requests_total 7",
		"demo_temperature -1.5", "demo_diverged NaN",
		"# TYPE demo_seconds summary", `demo_seconds{quantile="0.5"} 0.2`,
		`demo_seconds{quantile="0.99"} 0.5`, "demo_seconds_sum 1", "demo_seconds_count 4",
		"# TYPE demo_lag gauge", `demo_lag{topic="a",group="g\"1"} 3`,
		"# TYPE demo_empty gauge",
	} {
		if !strings.Contains("\n"+buf.String(), "\n"+want+"\n") {
			t.Errorf("exposition missing line %q:\n%s", want, buf.String())
		}
	}
}

// TestRegistryJSON checks the JSON rendering carries the same series
// under the same names.
func TestRegistryJSON(t *testing.T) {
	raw, err := json.Marshal(testRegistry().JSON())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"demo_diverged":null,"demo_empty":[],` +
		`"demo_lag":[{"labels":{"group":"g\"1","topic":"a"},"value":3}],` +
		`"demo_requests_total":7,` +
		`"demo_seconds":{"count":4,"p50":0.2,"p95":0.4,"p99":0.5,"sum":1},` +
		`"demo_temperature":-1.5}`
	if string(raw) != want {
		t.Fatalf("JSON = %s\nwant   %s", raw, want)
	}
}

func TestRegistryDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("demo_total", "first", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("registering a duplicate name did not panic")
		}
	}()
	r.Gauge("demo_total", "second", func() float64 { return 0 })
}
