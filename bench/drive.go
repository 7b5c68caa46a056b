package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// outDir is where trace files and result documents go, relative to the
// directory the benchmark is run from (the repository root).
const outDir = "bench/out"

// driveOptions configures the modes that run workloads as child
// processes, so peak memory and collector state belong to one workload.
type driveOptions struct {
	Seed    int64
	Seconds float64
	Scale   string
	Out     string
	Runs    int
}

// runLine is the JSON object a workload run ends with.
type runLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// child runs one workload in a fresh process and parses its last line.
// Its human-readable lines are relayed to echo.
func child(o driveOptions, workload string, seed int64, trace int, echo io.Writer) (runLine, error) {
	var line runLine
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	cmd := exec.Command(exe,
		"--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(o.Seconds), "--trace", fmt.Sprint(trace), "--scale", o.Scale)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return line, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	text := strings.TrimRight(stdout.String(), "\n")
	cut := strings.LastIndexByte(text, '\n')
	if echo != nil && cut >= 0 {
		fmt.Fprintln(echo, text[:cut])
	}
	if err := json.Unmarshal([]byte(text[cut+1:]), &line); err != nil {
		return line, fmt.Errorf("%s seed %d trace %d: last line is not the result object: %w", workload, seed, trace, err)
	}
	return line, nil
}

// machine describes where the numbers were taken.
type machine struct {
	Cores     int    `json:"cores"`
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
}

func thisMachine() machine {
	return machine{Cores: runtime.NumCPU(), GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
}

func writeDocument(path string, doc any) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload untraced (the end-to-end metrics) and then
// traced (the per-layer metrics and a span file), prints every metric by
// name and writes one JSON document.
func runAll(o driveOptions) int {
	type passes struct {
		EndToEnd runLine `json:"end_to_end"`
		PerLayer runLine `json:"per_layer"`
	}
	doc := struct {
		Machine   machine           `json:"machine"`
		Seed      int64             `json:"seed"`
		Seconds   float64           `json:"seconds"`
		Scale     string            `json:"scale"`
		Workloads map[string]passes `json:"workloads"`
	}{thisMachine(), o.Seed, o.Seconds, o.Scale, map[string]passes{}}
	status := 0
	for _, w := range workloads {
		var p passes
		var err error
		if p.EndToEnd, err = child(o, w.Name, o.Seed, 0, os.Stdout); err == nil {
			p.PerLayer, err = child(o, w.Name, o.Seed, 1, os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			status = 1
			continue
		}
		if !p.EndToEnd.Correct || !p.PerLayer.Correct {
			status = 1
		}
		doc.Workloads[w.Name] = p
	}
	path := o.Out
	if path == "" {
		path = filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", o.Seed))
	}
	if err := writeDocument(path, doc); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("# wrote %s\n", path)
	return status
}

// worse reports by what share of a the value b is worse than a, given
// the metric's direction (negative: b is better).
func worse(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// runAgree runs the untraced pass in two sets of Runs runs, seeds Seed,
// Seed+1, …, and holds the benchmark to its own bounds the way the
// driver does: within each set the quartile spread of every metric
// (set-up time excepted) must stay inside the metric's bound, and the
// second set's median may not be worse than the first's by more than the
// bound. With -runs 1 it compares two single runs of the same seed.
func runAgree(o driveOptions) int {
	type row struct {
		Workload string     `json:"workload"`
		Metric   string     `json:"metric"`
		Medians  [2]float64 `json:"medians"`
		Spreads  [2]float64 `json:"spreads"`
		Worse    float64    `json:"second_worse_by"`
		Bound    float64    `json:"bound"`
		Breach   bool       `json:"breach"`
	}
	doc := struct {
		Machine machine `json:"machine"`
		Seed    int64   `json:"seed"`
		Runs    int     `json:"runs_per_set"`
		Seconds float64 `json:"seconds"`
		Rows    []row   `json:"rows"`
	}{Machine: thisMachine(), Seed: o.Seed, Runs: o.Runs, Seconds: o.Seconds}
	status := 0
	fmt.Printf("%-14s %-12s %14s %14s %8s %8s %8s %6s\n", "workload", "metric", "median 1", "median 2", "spread1", "spread2", "worse", "bound")
	for _, w := range workloads {
		var values [2]map[string][]float64
		for set := range values {
			values[set] = map[string][]float64{}
			for i := 0; i < o.Runs; i++ {
				line, err := child(o, w.Name, o.Seed+int64(i), 0, nil)
				if err != nil || !line.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s set %d run %d: correct=%v failed=%d err=%v\n", w.Name, set+1, i, line.Correct, line.Failed, err)
					status = 1
					continue
				}
				for name, m := range line.Metrics {
					values[set][name] = append(values[set][name], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			r := row{Workload: w.Name, Metric: d.Name, Bound: d.Bound}
			for set := range values {
				r.Medians[set], r.Spreads[set] = median(values[set][d.Name]), spread(values[set][d.Name])
			}
			r.Worse = worse(d, r.Medians[0], r.Medians[1])
			r.Breach = r.Worse > d.Bound ||
				(d.Name != "setup_s" && (r.Spreads[0] > d.Bound || r.Spreads[1] > d.Bound))
			mark := ""
			if r.Breach {
				mark, status = "  BREACH", 1
			}
			fmt.Printf("%-14s %-12s %14.6g %14.6g %8.4f %8.4f %+8.4f %6.2f%s\n",
				r.Workload, r.Metric, r.Medians[0], r.Medians[1], r.Spreads[0], r.Spreads[1], r.Worse, r.Bound, mark)
			doc.Rows = append(doc.Rows, r)
		}
	}
	path := o.Out
	if path == "" {
		path = filepath.Join(outDir, fmt.Sprintf("agree-seed%d.json", o.Seed))
	}
	if err := writeDocument(path, doc); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("# wrote %s\n", path)
	return status
}
