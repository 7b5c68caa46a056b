package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0.01, 0.1, 1)
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 5 {
		t.Fatalf("count = %d, want 5", snap.Count)
	}
	if math.Abs(snap.Sum-5.56) > 1e-9 {
		t.Fatalf("sum = %v, want ~5.56", snap.Sum)
	}
	wantCum := []uint64{2, 3, 4} // <=0.01, <=0.1, <=1; the 5s lands in +Inf
	for i, b := range snap.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket le=%v cumulative = %d, want %d", b.Le, b.Count, wantCum[i])
		}
	}
}

func TestHistogramBoundaryInclusive(t *testing.T) {
	h := NewHistogram(1)
	h.Observe(1) // le="1" is inclusive in Prometheus semantics
	if got := h.Snapshot().Buckets[0].Count; got != 1 {
		t.Errorf("observation on the bound counted in bucket = %d, want 1", got)
	}
}

func TestMetricsGetOrCreate(t *testing.T) {
	m := NewMetrics()
	a := m.Counter("x_total", "help")
	b := m.Counter("x_total", "help")
	if a != b {
		t.Error("same name returned distinct counters")
	}
	a.Add(3)
	if got := m.Snapshot()["x_total"]; got != uint64(3) {
		t.Errorf("snapshot = %v, want 3", got)
	}
}

func TestGauge(t *testing.T) {
	m := NewMetrics()
	depth := uint64(7)
	m.GaugeFunc("depth", "queue depth", func() uint64 { return depth })
	depth = 4 // gauges move both ways
	if got := m.Snapshot()["depth"]; got != uint64(4) {
		t.Errorf("snapshot = %v, want 4", got)
	}
	out := m.RenderPrometheus()
	for _, want := range []string{"# TYPE depth gauge", "depth 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestReadThroughCounter: a read-through counter is its source's value
// at the moment of the snapshot or scrape, with nothing copied between.
func TestReadThroughCounter(t *testing.T) {
	m := NewMetrics()
	var src uint64
	m.CounterFunc("appends_total", "journal appends", func() uint64 { return src })
	for _, v := range []uint64{0, 3, 11} {
		src = v
		if got := m.Snapshot()["appends_total"]; got != v {
			t.Errorf("snapshot = %v, want %d", got, v)
		}
		out := m.RenderPrometheus()
		for _, want := range []string{"# HELP appends_total journal appends", "# TYPE appends_total counter", fmt.Sprintf("appends_total %d\n", v)} {
			if !strings.Contains(out, want) {
				t.Errorf("render missing %q:\n%s", want, out)
			}
		}
	}
}

// TestRegisterTwicePanics: a name holds one metric. Only a kept counter
// or histogram may be asked for again (get-or-create); a second kind,
// or a second registration of a read-through name, panics instead of
// rendering the name twice or dropping one of the values.
func TestRegisterTwicePanics(t *testing.T) {
	seven := func() uint64 { return 7 }
	for name, second := range map[string]func(m *Metrics){
		"counter after gauge":      func(m *Metrics) { m.Counter("x", "") },
		"histogram after gauge":    func(m *Metrics) { m.Histogram("x", "") },
		"gauge twice":              func(m *Metrics) { m.GaugeFunc("x", "", seven) },
		"read-through after gauge": func(m *Metrics) { m.CounterFunc("x", "", seven) },
	} {
		t.Run(name, func(t *testing.T) {
			m := NewMetrics()
			m.GaugeFunc("x", "", seven)
			defer func() {
				if recover() == nil {
					t.Errorf("no panic; registry renders:\n%s", m.RenderPrometheus())
				}
				if got := m.Snapshot()["x"]; got != uint64(7) {
					t.Errorf("first registration's value lost: x = %v, want 7", got)
				}
			}()
			second(m)
		})
	}
	m := NewMetrics()
	m.Counter("c_total", "")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("read-through counter over a kept one did not panic")
			}
		}()
		m.CounterFunc("c_total", "", seven)
	}()
}

func TestRenderPrometheus(t *testing.T) {
	m := NewMetrics()
	m.Counter("runs_total", "passes").Add(2)
	m.Histogram("lat_seconds", "latency", 0.5, 1).Observe(0.25)
	out := m.RenderPrometheus()
	for _, want := range []string{
		"# TYPE runs_total counter",
		"runs_total 2",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.5"} 1`,
		`lat_seconds_bucket{le="+Inf"} 1`,
		"lat_seconds_sum 0.25",
		"lat_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMuxEndpoints(t *testing.T) {
	m := NewMetrics()
	m.Counter("hits_total", "hits").Inc()
	mux := NewMux(func() any { return map[string]any{"healthy": true} }, m)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if doc["healthy"] != true {
		t.Errorf("/status = %v", doc)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "hits_total 1") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
}
