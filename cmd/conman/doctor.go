package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"conman/internal/core"
	"conman/internal/nm"
)

// runDoctor snapshots a running daemon's /status and renders a
// human-readable health report; the exit code is the check result (0
// healthy, 1 not, 2 unreachable daemon / bad flags).
func runDoctor(_ string, args []string) error {
	fs := flag.NewFlagSet("doctor", flag.ContinueOnError)
	addr := fs.String("addr", defaultDaemonAddr, "daemon address to probe")
	if err := fs.Parse(args); err != nil {
		return exitStatus(2)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + *addr + "/status")
	if err != nil {
		fmt.Fprintf(os.Stderr, "conman doctor: %v\n", err)
		return exitStatus(2)
	}
	defer resp.Body.Close()
	var st nm.DaemonStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		fmt.Fprintf(os.Stderr, "conman doctor: decoding /status: %v\n", err)
		return exitStatus(2)
	}

	dash := func(s string) string {
		if s == "" {
			return "-"
		}
		return s
	}
	fmt.Printf("daemon at %s\n", *addr)
	fmt.Printf("  running:     %v\n", st.Running)
	fmt.Printf("  converged:   %v (generation %d)\n", st.Converged, st.ConvergeGen)
	fmt.Printf("  dirty:       %s\n", dash(strings.Join(st.Dirty, ", ")))
	fmt.Printf("  last error:  %s\n", dash(st.LastError))
	fmt.Printf("  unreachable: %s\n", dash(joinDevices(st.Unreachable, ", ")))
	for _, h := range st.Intents {
		fmt.Printf("  intent %-8s %d exclusive / %d shared components on %s\n",
			h.Name+":", h.Exclusive, h.Shared, joinDevices(h.Devices, ","))
		if h.Path != "" {
			fmt.Printf("    path: %s\n", h.Path)
		}
	}
	fmt.Printf("  reconciles:  %d runs, %d errors\n",
		counterOf(st.Metrics, "conman_reconcile_runs_total"),
		counterOf(st.Metrics, "conman_reconcile_errors_total"))
	fmt.Printf("  events:      %d notify / %d trigger / %d topology (push), %d poll (pull), %d dropped\n",
		counterOf(st.Metrics, "conman_events_notify_total"),
		counterOf(st.Metrics, "conman_events_trigger_total"),
		counterOf(st.Metrics, "conman_events_topology_total"),
		counterOf(st.Metrics, "conman_events_poll_total"),
		counterOf(st.Metrics, "conman_events_dropped_total"))
	hits := counterOf(st.Metrics, "conman_observe_cache_hits_total")
	misses := counterOf(st.Metrics, "conman_observe_cache_misses_total")
	rate := "-"
	if hits+misses > 0 {
		rate = fmt.Sprintf("%.0f%%", 100*float64(hits)/float64(hits+misses))
	}
	fmt.Printf("  obs cache:   %d hits / %d misses (%s hit rate), %d observes, %d recompiles\n",
		hits, misses, rate,
		counterOf(st.Metrics, "conman_observes_total"),
		counterOf(st.Metrics, "conman_store_recompiles_total"))
	fmt.Printf("  journal:     %d entries, %d snapshots, %d bytes journaled since the last snapshot of %d bytes\n",
		counterOf(st.Metrics, "conman_journal_entries_total"),
		counterOf(st.Metrics, "conman_snapshot_writes_total"),
		counterOf(st.Metrics, "conman_journal_bytes_since_snapshot"),
		counterOf(st.Metrics, "conman_snapshot_bytes"))

	if !st.Healthy() {
		fmt.Println("UNHEALTHY")
		return exitStatus(1)
	}
	fmt.Println("healthy")
	return nil
}

func joinDevices(devs []core.DeviceID, sep string) string {
	names := make([]string, len(devs))
	for i, dev := range devs {
		names[i] = string(dev)
	}
	return strings.Join(names, sep)
}

// counterOf digs one counter out of a decoded /status metrics map;
// JSON numbers arrive as float64.
func counterOf(metrics map[string]any, name string) uint64 {
	if v, ok := metrics[name].(float64); ok {
		return uint64(v)
	}
	return 0
}
