package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go and main.go")

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkJSON mirrors BENCHMARK.json, key for key.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// wantBenchmarkJSON renders the tables this package emits metrics from.
func wantBenchmarkJSON() benchmarkJSON {
	var b benchmarkJSON
	b.Command = []string{"bash", "bench/run.sh"}
	b.Paths = []string{"bench"}
	b.RunSeconds = 10
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{d.Name, d.Unit, d.Better})
	}
	return b
}

// TestBenchmarkJSON holds BENCHMARK.json to the metric and workload
// tables the program emits from, and both to the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	want := wantBenchmarkJSON()
	const path = "../BENCHMARK.json"
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is out of step with the tables in this package; run go test -run TestBenchmarkJSON -update")
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range got.Workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	hasSetup := false
	for _, m := range got.EndToEnd {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range got.PerLayer {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
	}
	for _, d := range perLayer {
		if d.Layer == "" || d.Moves == "" {
			t.Errorf("per-layer metric %s names no layer or no end-to-end metric it should move", d.Name)
		}
	}
	for w, as := range aliases {
		if _, ok := findWorkload(w); !ok {
			t.Errorf("aliases name an unknown workload %q", w)
		}
		for m := range as {
			if !seen[m] {
				t.Errorf("aliases of %s name an unknown metric %q", w, m)
			}
		}
	}
}

// checkMetrics asserts a run emitted every declared metric of its pass,
// with the declared unit and a finite value.
func checkMetrics(t *testing.T, res *result, defs []metricDef, positive bool) {
	t.Helper()
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Problems)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", d.Name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("end-to-end metric %s is %v, must never be 0", d.Name, m.Value)
		}
	}
	var line runLine
	if err := json.Unmarshal([]byte(res.line()), &line); err != nil || !line.Correct {
		t.Errorf("result line %q: correct=%v err=%v", res.line(), line.Correct, err)
	}
}

// commonPrefix compares two input fingerprints over the entries both
// runs got to (run length is timed, so one may have gone further).
func commonPrefix(a, b []string) (n int, equal bool) {
	n = min(len(a), len(b))
	return n, reflect.DeepEqual(a[:n], b[:n])
}

// TestTinyWorkloads runs all six workloads at tiny sizes, untraced and
// traced: every metric named in BENCHMARK.json comes out, no output
// check fails, the same seed regenerates the same inputs and exact
// counts, another seed generates other inputs, and the span file a
// traced run writes can be explained.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			out := t.TempDir()
			cfg := func(seed int64, trace bool) config {
				return config{Seed: seed, Seconds: 0.05, Trace: trace, Sizes: tinySizes, OutDir: out, TmpDir: out}
			}
			plain := run(w, cfg(1, false))
			checkMetrics(t, plain, endToEnd, true)
			traced := run(w, cfg(1, true))
			checkMetrics(t, traced, perLayer, false)
			other := run(w, cfg(2, false))

			if n, equal := commonPrefix(plain.Inputs, traced.Inputs); !equal {
				t.Errorf("seed 1 generated different inputs on two runs:\n%v\n%v", plain.Inputs[:n], traced.Inputs[:n])
			}
			if len(plain.Inputs) > 0 {
				if _, equal := commonPrefix(plain.Inputs, other.Inputs); equal {
					t.Errorf("seeds 1 and 2 generated the same inputs: %v", plain.Inputs)
				}
			}
			if len(traced.Exact) > 0 {
				if again := run(w, cfg(1, true)); !reflect.DeepEqual(traced.Exact, again.Exact) {
					t.Errorf("exact counts differ between two runs of seed 1: %v vs %v", traced.Exact, again.Exact)
				}
			}
			for name, v := range plain.Exact {
				if traced.Exact[name] != v {
					t.Errorf("exact count %s: %v untraced, %v traced", name, v, traced.Exact[name])
				}
			}

			var buf bytes.Buffer
			if err := explainTrace(&buf, tracePath(out, w.Name)); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"self time per layer", "top ten spans by self time"} {
				if !strings.Contains(buf.String(), want) {
					t.Errorf("explain output lacks %q:\n%s", want, buf.String())
				}
			}
		})
	}
}

// TestSpreadMatchesPython pins the steadiness measure to
// statistics.quantiles(xs, n=4): for 1..10 the quartiles are 2.75 and
// 8.25 and the median 5.5.
func TestSpreadMatchesPython(t *testing.T) {
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

// TestTailKeepsTenSamplesBeyond: a tail percentile is lowered until ten
// samples lie beyond it, and below 21 samples falls back to the median.
func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail(xs, 0.99); got != 190 {
		t.Errorf("p99 of 1..200 = %v, want 190 (ten samples beyond)", got)
	}
	if got := tail(xs, 0.5); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if got := tail(xs[:20], 0.99); got != 10.5 {
		t.Errorf("p99 of 20 samples = %v, want the median 10.5", got)
	}
}

// TestSelfTimes: self time is duration minus what the children cover,
// with overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "nm.apply", Start: 10, End: 60},
		{ID: 2, Parent: 0, Name: "probe.verify", Start: 50, End: 80},
		{ID: 3, Parent: 1, Name: "channel.send", Start: 20, End: 30},
	}
	got := selfTimes(spans)
	for i, want := range []int64{30, 40, 30, 10} {
		if int64(got[i]) != want {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want)
		}
	}
}
