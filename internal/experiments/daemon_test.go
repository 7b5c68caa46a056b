package experiments

// End-to-end tests for the autonomous reconciliation daemon: injected
// faults — a cut wire, a killed pipe, a killed device — must heal with ZERO test-initiated Reconcile calls. The
// fault surfaces as events (carrier-loss topology re-reports,
// pipe-deleted notifies, §II-E dependency triggers); the daemon
// wakes on the first and drives Reconcile until the network converges
// again.

import (
	"testing"
	"time"

	"conman/internal/core"
	"conman/internal/nm"
	"conman/internal/obs"
)

const daemonWait = 15 * time.Second

// counterValue digs one counter out of a metrics snapshot.
func counterValue(t *testing.T, m *obs.Metrics, name string) uint64 {
	t.Helper()
	v, ok := m.Snapshot()[name]
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	n, ok := v.(uint64)
	if !ok {
		t.Fatalf("metric %q is %T, want uint64", name, v)
	}
	return n
}

// wantTopologyEvents returns the inclusive range of push-side topology
// events expected for `cuts` concurrent wire cuts between live managed
// devices. Each cut's two adjacent devices re-report carrier loss, so
// the ceiling is 2 per cut; a single sequential cut hits it exactly.
// Under concurrent cuts sharing a device, near-simultaneous callbacks
// can snapshot the same (multi-cut) topology and the NM suppresses the
// identical re-report, so only a floor of one changed report per
// adjacent device of the episode is guaranteed — at least 2 overall.
func wantTopologyEvents(cuts int) (lo, hi uint64) {
	return 2, 2 * uint64(cuts)
}

// checkTopologyEvents asserts the topology-event delta of an episode of
// `cuts` concurrent wire cuts lies in the parameterized range.
func checkTopologyEvents(t *testing.T, got uint64, cuts int) {
	t.Helper()
	lo, hi := wantTopologyEvents(cuts)
	if got < lo || got > hi {
		t.Errorf("topology events for %d wire cut(s) = %d, want %d..%d", cuts, got, lo, hi)
	}
}

// histCount returns the observation count of a histogram metric.
func histCount(t *testing.T, m *obs.Metrics, name string) uint64 {
	t.Helper()
	v, ok := m.Snapshot()[name]
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	h, ok := v.(obs.HistogramSnapshot)
	if !ok {
		t.Fatalf("metric %q is %T, want HistogramSnapshot", name, v)
	}
	return h.Count
}

// TestDaemonHealsKilledWireGRE runs the routed GRE diamond under the
// daemon: cutting the wire on the active arm produces carrier-loss
// topology re-reports from both adjacent devices (no manual
// ReportTopology), and the daemon reroutes the tunnel over the other
// arm autonomously.
func TestDaemonHealsKilledWireGRE(t *testing.T) {
	tb, err := BuildDiamondGRE()
	if err != nil {
		t.Fatal(err)
	}
	intent := nm.Intent{Name: "gre-diamond", Goal: DiamondGREGoal(), Prefer: "GRE-IP tunnel"}
	if err := tb.NM.Submit(intent); err != nil {
		t.Fatal(err)
	}
	d, stop := tb.StartDaemon(nm.DaemonConfig{})
	defer stop()
	if err := d.WaitConverged(0, daemonWait); err != nil {
		t.Fatalf("initial convergence: %v", err)
	}
	if err := tb.VerifyConnectivity(95000); err != nil {
		t.Fatalf("after initial convergence: %v", err)
	}

	st := d.Status()
	if len(st.Intents) != 1 {
		t.Fatalf("status reports %d intents, want 1", len(st.Intents))
	}
	on := make(map[core.DeviceID]bool)
	for _, dev := range st.Intents[0].Devices {
		on[dev] = true
	}
	used, spare := core.DeviceID("B1"), core.DeviceID("B2")
	if on["B2"] {
		used, spare = "B2", "B1"
	}
	if !on[used] || on[spare] {
		t.Fatalf("initial path should cross exactly one arm, got %v", st.Intents[0].Devices)
	}

	topoBefore := counterValue(t, d.Metrics(), "conman_events_topology_total")
	gen := d.ConvergeGen()
	// The fault. Carrier callbacks make EL and the transit router
	// re-report; nobody calls Reconcile.
	if err := tb.Net.SetMediumUp("EL-"+string(used), false); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitConverged(gen, daemonWait); err != nil {
		t.Fatalf("convergence after wire cut: %v", err)
	}

	if err := tb.VerifyConnectivity(95100); err != nil {
		t.Fatalf("after autonomous reroute: %v", err)
	}
	st = d.Status()
	on = make(map[core.DeviceID]bool)
	for _, dev := range st.Intents[0].Devices {
		on[dev] = true
	}
	if on[used] || !on[spare] {
		t.Errorf("expected reroute via %s, path on %v", spare, st.Intents[0].Devices)
	}
	if deviceConfigured(t, tb, used) {
		t.Errorf("stranded %s still carries configuration", used)
	}
	if !st.Healthy() {
		t.Errorf("daemon not healthy after heal: %+v", st)
	}
	// Exactly the two adjacent devices re-reported a changed topology:
	// the push-side event count is deterministic even though reconciles
	// run on the concurrent executor.
	checkTopologyEvents(t, counterValue(t, d.Metrics(), "conman_events_topology_total")-topoBefore, 1)
	if histCount(t, d.Metrics(), "conman_trigger_to_converged_seconds") == 0 {
		t.Error("trigger-to-converged histogram has no observations")
	}
}

// TestDaemonHealsKilledWireVLANShared cuts the active diamond arm under
// two VLAN-tunnel intents sharing it: the daemon migrates both to the
// standby arm and prunes the stranded transit switch, autonomously.
func TestDaemonHealsKilledWireVLANShared(t *testing.T) {
	tb, pairs, err := BuildDiamondShared(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if err := tb.NM.Submit(p.Intent("VLAN tunnel")); err != nil {
			t.Fatal(err)
		}
	}
	d, stop := tb.StartDaemon(nm.DaemonConfig{})
	defer stop()
	if err := d.WaitConverged(0, daemonWait); err != nil {
		t.Fatalf("initial convergence: %v", err)
	}
	for i, p := range pairs {
		if err := tb.VerifyPair(p, uint32(95200+100*i)); err != nil {
			t.Fatalf("pair %d after initial convergence: %v", p.Index, err)
		}
	}
	for _, h := range d.Status().Intents {
		onB1 := false
		for _, dev := range h.Devices {
			if dev == "B1" {
				onB1 = true
			}
		}
		if !onB1 {
			t.Fatalf("intent %q not initially via B1: %v", h.Name, h.Devices)
		}
	}

	topoBefore := counterValue(t, d.Metrics(), "conman_events_topology_total")
	gen := d.ConvergeGen()
	if err := tb.Net.SetMediumUp("A-B1", false); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitConverged(gen, daemonWait); err != nil {
		t.Fatalf("convergence after wire cut: %v", err)
	}

	for i, p := range pairs {
		if err := tb.VerifyPair(p, uint32(95400+100*i)); err != nil {
			t.Errorf("pair %d after autonomous reroute: %v", p.Index, err)
		}
	}
	if deviceConfigured(t, tb, "B1") {
		t.Error("stranded B1 still carries configuration")
	}
	checkTopologyEvents(t, counterValue(t, d.Metrics(), "conman_events_topology_total")-topoBefore, 1)
}

// TestDaemonHealsKilledPipe deletes a tunnel pipe out from under the
// applied GRE VPN: the MA's pipe-deleted notify reaches the daemon as a
// push event and the damage is repaired with no explicit Reconcile.
func TestDaemonHealsKilledPipe(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	intent := VPNIntent(Fig4Goal(), "GRE-IP tunnel")
	if err := tb.NM.Submit(intent); err != nil {
		t.Fatal(err)
	}
	d, stop := tb.StartDaemon(nm.DaemonConfig{})
	defer stop()
	if err := d.WaitConverged(0, daemonWait); err != nil {
		t.Fatalf("initial convergence: %v", err)
	}
	if err := tb.VerifyConnectivity(95600); err != nil {
		t.Fatalf("after initial convergence: %v", err)
	}

	notifyBefore := counterValue(t, d.Metrics(), "conman_events_notify_total")
	gen := d.ConvergeGen()
	if err := tb.Devices["A"].MA.Delete(core.DeleteRequest{
		Kind: core.ComponentPipe, Module: core.Ref(core.NameGRE, "A", "l"), ID: "P1",
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitConverged(gen, daemonWait); err != nil {
		t.Fatalf("convergence after pipe kill: %v", err)
	}

	if err := tb.VerifyConnectivity(95700); err != nil {
		t.Fatalf("after autonomous repair: %v", err)
	}
	if got := counterValue(t, d.Metrics(), "conman_events_notify_total"); got <= notifyBefore {
		t.Errorf("pipe kill produced no notify events (%d -> %d)", notifyBefore, got)
	}
}

// TestDaemonHealsKilledDevice kills transit switch B1 outright — wires
// cut, management endpoint detached — under two shared VLAN intents.
// The daemon must reroute both pairs over B2 without wedging on the
// unreachable device, and report it in /status.
func TestDaemonHealsKilledDevice(t *testing.T) {
	tb, pairs, err := BuildDiamondShared(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if err := tb.NM.Submit(p.Intent("VLAN tunnel")); err != nil {
			t.Fatal(err)
		}
	}
	d, stop := tb.StartDaemon(nm.DaemonConfig{})
	defer stop()
	if err := d.WaitConverged(0, daemonWait); err != nil {
		t.Fatalf("initial convergence: %v", err)
	}
	for i, p := range pairs {
		if err := tb.VerifyPair(p, uint32(95800+100*i)); err != nil {
			t.Fatalf("pair %d after initial convergence: %v", p.Index, err)
		}
	}

	gen := d.ConvergeGen()
	if err := tb.KillDevice("B1"); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitConverged(gen, daemonWait); err != nil {
		t.Fatalf("convergence after device kill: %v", err)
	}

	for i, p := range pairs {
		if err := tb.VerifyPair(p, uint32(96000+100*i)); err != nil {
			t.Errorf("pair %d after autonomous reroute: %v", p.Index, err)
		}
	}
	st := d.Status()
	foundUnreachable := false
	for _, dev := range st.Unreachable {
		if dev == "B1" {
			foundUnreachable = true
		}
	}
	if !foundUnreachable {
		t.Errorf("status does not report killed B1 as unreachable: %+v", st.Unreachable)
	}
	for _, h := range st.Intents {
		for _, dev := range h.Devices {
			if dev == "B1" {
				t.Errorf("intent %q still routed via killed B1: %v", h.Name, h.Devices)
			}
		}
	}
}
