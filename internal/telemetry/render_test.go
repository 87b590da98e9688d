package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// buildTestRegistry populates a registry with one of each metric kind, with
// deterministic values, for golden rendering tests.
func buildTestRegistry() *Registry {
	r := New()
	r.Counter("oblivfd_retries_total").Add(3)
	r.Counter("oblivfd_rpc_errors_total", "op", "ReadPath").Add(1)
	r.Gauge("oblivfd_rpc_inflight").Set(2)
	h := r.Histogram("oblivfd_rpc_seconds", "op", "ReadPath")
	h.Observe(15 * time.Microsecond)
	h.Observe(15 * time.Microsecond)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	r := buildTestRegistry()
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# TYPE oblivfd_retries_total counter\n",
		"oblivfd_retries_total 3\n",
		"# TYPE oblivfd_rpc_errors_total counter\n",
		`oblivfd_rpc_errors_total{op="ReadPath"} 1` + "\n",
		"# TYPE oblivfd_rpc_inflight gauge\n",
		"oblivfd_rpc_inflight 2\n",
		"# TYPE oblivfd_rpc_seconds histogram\n",
		`oblivfd_rpc_seconds_bucket{op="ReadPath",le="1e-05"} 0` + "\n",
		`oblivfd_rpc_seconds_bucket{op="ReadPath",le="2e-05"} 2` + "\n",
		`oblivfd_rpc_seconds_bucket{op="ReadPath",le="+Inf"} 2` + "\n",
		`oblivfd_rpc_seconds_count{op="ReadPath"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}

	// Each # TYPE line appears exactly once per family.
	for _, fam := range []string{"oblivfd_retries_total", "oblivfd_rpc_seconds"} {
		if n := strings.Count(out, "# TYPE "+fam+" "); n != 1 {
			t.Fatalf("family %s has %d TYPE lines", fam, n)
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := buildTestRegistry()
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]int64             `json:"counters"`
		Gauges     map[string]int64             `json:"gauges"`
		Histograms map[string]HistogramSnapshot `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if doc.Counters["oblivfd_retries_total"] != 3 {
		t.Fatalf("counters = %+v", doc.Counters)
	}
	if doc.Gauges["oblivfd_rpc_inflight"] != 2 {
		t.Fatalf("gauges = %+v", doc.Gauges)
	}
	hs, ok := doc.Histograms[`oblivfd_rpc_seconds{op="ReadPath"}`]
	if !ok || hs.Count != 2 {
		t.Fatalf("histograms = %+v", doc.Histograms)
	}
}

func TestMuxEndpoints(t *testing.T) {
	r := buildTestRegistry()
	srv := httptest.NewServer(NewMux(r))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ct := get("/metrics")
	if code != 200 || !strings.Contains(body, "oblivfd_retries_total 3") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content-type = %s", ct)
	}

	code, body, ct = get("/metrics.json")
	if code != 200 || !json.Valid([]byte(body)) {
		t.Fatalf("/metrics.json: code=%d body=%q", code, body)
	}
	if ct != "application/json" {
		t.Fatalf("/metrics.json content-type = %s", ct)
	}

	code, body, _ = get("/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}
}

func TestBreakdownRendering(t *testing.T) {
	r := buildTestRegistry()
	out := r.Breakdown()
	for _, want := range []string{"oblivfd_retries_total", "oblivfd_rpc_seconds", "p95="} {
		if !strings.Contains(out, want) {
			t.Fatalf("breakdown missing %q:\n%s", want, out)
		}
	}
}

func TestMarshalBreakdownJSON(t *testing.T) {
	r := buildTestRegistry()
	phases := []struct {
		Name  string `json:"name"`
		Count int64  `json:"count"`
	}{{"lattice/level-01", 1}}
	b, err := r.MarshalBreakdownJSON(3*time.Second, phases)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		WallNS   int64            `json:"wall_ns"`
		Counters map[string]int64 `json:"counters"`
		Phases   []struct {
			Name  string `json:"name"`
			Count int64  `json:"count"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.WallNS != int64(3*time.Second) || doc.Counters["oblivfd_retries_total"] != 3 ||
		len(doc.Phases) != 1 || doc.Phases[0] != phases[0] {
		t.Fatalf("doc = %+v", doc)
	}
}
