package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef declares one metric the benchmark emits. The tables below
// are the single source BENCHMARK.json is checked against (bench_test).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string  // per-layer only: the package measured
	Moves  string  // per-layer only: the end-to-end metric (and workload) it should move
}

// Workload-generic end-to-end metrics. The driver demands every
// end-to-end metric from every workload, so the issue's fourteen
// workload-specific names map onto these per workload (see aliases).
// The timing bounds are the widest allowed: on the 2-core machine the
// baseline was taken on, ten runs of the same code spread by up to 13.5%
// (17% in an earlier set) and two sets' medians differed by up to 8%
// (15% earlier); README.md has both agreement runs, BASELINE.json the last.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op2_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.2},
}

// aliases names, per workload, what the generic operation metrics
// measure, in the vocabulary of the issue that defined the benchmark.
var aliases = map[string]map[string]string{
	"udp-clean":     {"op_p50_s": "submit_to_delivery_s", "op2_p50_s": "replan_converged_s", "ops_per_s": "configurations_per_s"},
	"udp-lossy":     {"op_p50_s": "submit_to_delivery_s", "op2_p50_s": "replan_converged_s", "ops_per_s": "configurations_per_s"},
	"hub-coldstart": {"op_p50_s": "submit_to_delivery_s", "op2_p50_s": "replan_converged_s", "ops_per_s": "configurations_per_s"},
	"plan-fabric":   {"op_p50_s": "plan_search_s", "op2_p50_s": "plan_scale_s", "ops_per_s": "plans_per_s"},
	"store-churn":   {"op_p50_s": "submit_reconcile_p50_s", "op2_p50_s": "withdraw_reconcile_p50_s", "ops_per_s": "intents_per_s"},
	"chaos-repair":  {"op_p50_s": "fault_to_delivery_p50_s", "op2_p50_s": "fault_to_converged_p50_s", "ops_per_s": "repairs_per_s"},
}

const (
	opChain = "op_p50_s on udp-clean, udp-lossy, hub-coldstart"
	opUDP   = "op_p50_s on udp-clean, udp-lossy"
	opHub   = "op_p50_s on hub-coldstart"
	opPlan  = "op_p50_s, op2_p50_s on plan-fabric"
	opStore = "op_p50_s, op2_p50_s on store-churn"
	opTail  = "ops_per_s on store-churn"
	opChaos = "op_p50_s, op2_p50_s on chaos-repair"
)

// Per-layer metrics, emitted by the traced pass. A layer a workload
// does not exercise reports 0 (the prediction for it).
var perLayer = []metricDef{
	{Name: "nm.graph_build_s", Unit: "s", Better: "lower", Layer: "nm", Moves: "op2_p50_s on plan-fabric"},
	{Name: "nm.find_s", Unit: "s", Better: "lower", Layer: "nm", Moves: "op_p50_s on plan-fabric"},
	{Name: "nm.find_states_expanded", Unit: "count", Better: "lower", Layer: "nm", Moves: "op_p50_s on plan-fabric"},
	{Name: "nm.compile_s", Unit: "s", Better: "lower", Layer: "nm", Moves: "op2_p50_s on plan-fabric"},
	{Name: "nm.plan_s", Unit: "s", Better: "lower", Layer: "nm", Moves: opPlan},
	{Name: "nm.plan_observe_diff_s", Unit: "s", Better: "lower", Layer: "nm", Moves: opPlan},

	{Name: "nm.apply_s", Unit: "s", Better: "lower", Layer: "nm", Moves: opChain},
	{Name: "nm.post_apply_settle_s", Unit: "s", Better: "lower", Layer: "nm", Moves: opChain},
	{Name: "nm.quiesce_s", Unit: "s", Better: "lower", Layer: "nm", Moves: opChain},
	{Name: "nm.msgs_per_op", Unit: "count", Better: "lower", Layer: "nm", Moves: opChain},
	{Name: "nm.cmd_sent", Unit: "count", Better: "lower", Layer: "nm", Moves: opChain},
	{Name: "nm.relay_out", Unit: "count", Better: "lower", Layer: "nm", Moves: opChain},
	{Name: "nm.relay_in", Unit: "count", Better: "lower", Layer: "nm", Moves: opChain},
	{Name: "nm.notify_recv", Unit: "count", Better: "lower", Layer: "nm", Moves: opChain},
	{Name: "nm.call_retries", Unit: "count", Better: "lower", Layer: "nm", Moves: opUDP},

	{Name: "nm.store.submit_s", Unit: "s", Better: "lower", Layer: "nm", Moves: opStore},
	{Name: "nm.store.reconcile_s", Unit: "s", Better: "lower", Layer: "nm", Moves: opStore},
	{Name: "nm.store.recompiled_per_op", Unit: "count", Better: "lower", Layer: "nm", Moves: opStore},
	{Name: "nm.store.observed_per_op", Unit: "count", Better: "lower", Layer: "nm", Moves: opStore},
	{Name: "nm.store.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "nm", Moves: opStore},
	{Name: "nm.store.diffed_devices_per_op", Unit: "count", Better: "lower", Layer: "nm", Moves: opStore},
	{Name: "nm.store.full_rebuilds", Unit: "count", Better: "lower", Layer: "nm", Moves: opStore},
	{Name: "nm.store.planstore_p50_s", Unit: "s", Better: "lower", Layer: "nm", Moves: opStore},
	{Name: "nm.store.noop_reconcile_p50_s", Unit: "s", Better: "lower", Layer: "nm", Moves: opStore},
	{Name: "nm.store.submit_reconcile_p99_s", Unit: "s", Better: "lower", Layer: "nm", Moves: opTail},

	{Name: "nm.daemon.passes_per_repair", Unit: "count", Better: "lower", Layer: "nm", Moves: opChaos},
	{Name: "nm.daemon.reconcile_busy_s", Unit: "s", Better: "lower", Layer: "nm", Moves: opChaos},
	{Name: "nm.daemon.idle_share", Unit: "ratio", Better: "lower", Layer: "nm", Moves: opChaos},
	{Name: "nm.daemon.events_per_repair", Unit: "count", Better: "lower", Layer: "nm", Moves: opChaos},
	{Name: "nm.daemon.events_dropped", Unit: "count", Better: "lower", Layer: "nm", Moves: opChaos},
	{Name: "nm.daemon.converged_minus_delivery_s", Unit: "s", Better: "lower", Layer: "nm", Moves: "op2_p50_s on chaos-repair"},
	{Name: "nm.daemon.fault_to_delivery_p95_s", Unit: "s", Better: "lower", Layer: "nm", Moves: "op_p50_s on chaos-repair"},
	{Name: "nm.daemon.dark_probes_per_repair", Unit: "count", Better: "lower", Layer: "nm", Moves: "op_p50_s on chaos-repair"},

	{Name: "datastore.appends_per_op", Unit: "count", Better: "lower", Layer: "nm/datastore", Moves: opStore},
	{Name: "datastore.append_p50_s", Unit: "s", Better: "lower", Layer: "nm/datastore", Moves: opStore},
	{Name: "datastore.snapshots", Unit: "count", Better: "lower", Layer: "nm/datastore", Moves: opTail},
	{Name: "datastore.snapshot_p50_s", Unit: "s", Better: "lower", Layer: "nm/datastore", Moves: opTail},
	{Name: "datastore.snapshot_bytes", Unit: "bytes", Better: "lower", Layer: "nm/datastore", Moves: opTail},
	{Name: "datastore.busy_share", Unit: "ratio", Better: "lower", Layer: "nm/datastore", Moves: opTail},

	{Name: "msg.envelopes", Unit: "count", Better: "lower", Layer: "msg", Moves: opChain},
	{Name: "msg.envelopes.convey", Unit: "count", Better: "lower", Layer: "msg", Moves: opChain},
	{Name: "msg.envelopes.command", Unit: "count", Better: "lower", Layer: "msg", Moves: opChain},
	{Name: "msg.envelopes.show_actual", Unit: "count", Better: "lower", Layer: "msg", Moves: opChain},
	{Name: "msg.bytes", Unit: "bytes", Better: "lower", Layer: "msg", Moves: opChain},
	{Name: "msg.bytes_per_envelope_p50", Unit: "bytes", Better: "lower", Layer: "msg", Moves: opChain},
	{Name: "msg.marshal_ns", Unit: "ns", Better: "lower", Layer: "msg", Moves: opChain},
	{Name: "msg.unmarshal_ns", Unit: "ns", Better: "lower", Layer: "msg", Moves: opUDP},
	{Name: "msg.marshal_allocs", Unit: "count", Better: "lower", Layer: "msg", Moves: opChain},
	{Name: "msg.batch_encode_ns", Unit: "ns", Better: "lower", Layer: "msg", Moves: opUDP},
	{Name: "msg.batch_decode_ns", Unit: "ns", Better: "lower", Layer: "msg", Moves: opUDP},

	{Name: "channel.datagrams_sent", Unit: "count", Better: "lower", Layer: "channel", Moves: opUDP},
	{Name: "channel.data_frames", Unit: "count", Better: "lower", Layer: "channel", Moves: opUDP},
	{Name: "channel.retransmits", Unit: "count", Better: "lower", Layer: "channel", Moves: opUDP},
	{Name: "channel.dup_frames", Unit: "count", Better: "lower", Layer: "channel", Moves: opUDP},
	{Name: "channel.ack_only", Unit: "count", Better: "lower", Layer: "channel", Moves: opUDP},
	{Name: "channel.abandoned_frames", Unit: "count", Better: "lower", Layer: "channel", Moves: opUDP},
	{Name: "channel.backlog_drops", Unit: "count", Better: "lower", Layer: "channel", Moves: opUDP},
	{Name: "channel.queue_high_water", Unit: "count", Better: "lower", Layer: "channel", Moves: opUDP},
	{Name: "channel.injected_drops", Unit: "count", Better: "lower", Layer: "channel", Moves: "op_p50_s on udp-lossy"},
	{Name: "channel.envelopes_per_data_frame", Unit: "ratio", Better: "higher", Layer: "channel", Moves: opUDP},
	{Name: "channel.ack_only_share", Unit: "ratio", Better: "lower", Layer: "channel", Moves: opUDP},
	{Name: "channel.retransmit_share", Unit: "ratio", Better: "lower", Layer: "channel", Moves: opUDP},
	{Name: "channel.transit_p50_s", Unit: "s", Better: "lower", Layer: "channel", Moves: opUDP},
	{Name: "channel.transit_p99_s", Unit: "s", Better: "lower", Layer: "channel", Moves: opUDP},
	{Name: "channel.send_call_p99_s", Unit: "s", Better: "lower", Layer: "channel", Moves: opUDP},

	{Name: "device.requests", Unit: "count", Better: "lower", Layer: "device", Moves: opHub},
	{Name: "device.handler_busy_s", Unit: "s", Better: "lower", Layer: "device", Moves: opHub},
	{Name: "device.handler_p50_s", Unit: "s", Better: "lower", Layer: "device", Moves: opHub},
	{Name: "device.handler_p99_s", Unit: "s", Better: "lower", Layer: "device", Moves: opHub},
	{Name: "device.show_actual_p50_s", Unit: "s", Better: "lower", Layer: "device", Moves: "op2_p50_s on udp-clean, udp-lossy, hub-coldstart"},

	{Name: "modules.conveys", Unit: "count", Better: "lower", Layer: "modules", Moves: opChain},
	{Name: "modules.conveys.igp", Unit: "count", Better: "lower", Layer: "modules", Moves: opChain},
	{Name: "modules.conveys.other", Unit: "count", Better: "lower", Layer: "modules", Moves: opChain},
	{Name: "modules.conveys_per_device", Unit: "count", Better: "lower", Layer: "modules", Moves: opChain},
	{Name: "modules.convey_handler_busy_s", Unit: "s", Better: "lower", Layer: "modules", Moves: opHub},

	{Name: "kernel.exec_ops", Unit: "count", Better: "lower", Layer: "kernel", Moves: opHub},

	{Name: "netsim.probe_rtt_p50_s", Unit: "s", Better: "lower", Layer: "netsim", Moves: "op_p50_s on chaos-repair"},
	{Name: "netsim.frames_per_probe", Unit: "count", Better: "lower", Layer: "netsim", Moves: "op_p50_s on chaos-repair"},
	{Name: "packet.serialize_ns", Unit: "ns", Better: "lower", Layer: "packet", Moves: "op_p50_s on chaos-repair"},
	{Name: "packet.decode_ns", Unit: "ns", Better: "lower", Layer: "packet", Moves: "op_p50_s on chaos-repair"},
	{Name: "packet.serialize_allocs", Unit: "count", Better: "lower", Layer: "packet", Moves: "op_p50_s on chaos-repair"},

	{Name: "topo.generate_s", Unit: "s", Better: "lower", Layer: "topo", Moves: "setup_s"},
	{Name: "experiments.build_s", Unit: "s", Better: "lower", Layer: "experiments", Moves: "setup_s"},
	{Name: "nm.discover_s", Unit: "s", Better: "lower", Layer: "nm", Moves: "setup_s"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "none"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Layer: "trace", Moves: "none"},
}

// metric is one measured value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// result is what one run of one workload produces.
type result struct {
	Workload  string
	Traced    bool
	Attempted int
	Failed    int
	// Problems lists every failed output check, for the operator.
	Problems []string
	Metrics  map[string]metric
	// Inputs fingerprints every generated input (graphs, victim wires,
	// customer order, fault seeds): the same seed must reproduce it
	// byte for byte.
	Inputs []string
	// Exact holds counts that must repeat across reps and runs.
	Exact map[string]float64
}

func newResult(workload string, traced bool) *result {
	return &result{Workload: workload, Traced: traced, Metrics: map[string]metric{}, Exact: map[string]float64{}}
}

// defs is the metric table of the pass this result belongs to.
func (r *result) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// fail records one failed operation and why.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// set stores a metric value under its declared unit; an undeclared name
// or a value that is not a number is a bug in the benchmark.
func (r *result) set(name string, v float64, n int) {
	for _, d := range r.defs() {
		if d.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				panic(fmt.Sprintf("bench: metric %s is %v", name, v))
			}
			r.Metrics[name] = metric{Value: v, Unit: d.Unit, N: n}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// complete fills every declared metric the workload did not set with 0:
// the layer did nothing on this workload.
func (r *result) complete() {
	for _, d := range r.defs() {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = metric{Unit: d.Unit}
		}
	}
}

// print writes every metric by name with value, unit and sample count,
// then the failed checks.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		label := name
		if a := aliases[r.Workload][name]; a != "" {
			label += " (" + a + ")"
		}
		fmt.Fprintf(w, "%-14s %-48s %14.6g %-6s n=%d\n", r.Workload, label, m.Value, m.Unit, m.N)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%-14s FAILED CHECK: %s\n", r.Workload, p)
	}
}

// line renders the one-line JSON object the driver reads.
func (r *result) line() string {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, r.Metrics}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings only (set rejects the rest)
	}
	return string(data)
}
