package experiments

// A device's notifies are unsolicited events: they tell the NM of
// changes it did not order. A pipe delete the NM's own batch ordered is
// reported once, in the batch reply; only an out-of-band delete raises
// a pipe-deleted notify. These tests pin both halves and the cost the
// rule saves the daemon: a reroute is one pass plus the convergence
// check, with no extra pass for echoes of its own deletes.

import (
	"testing"

	"conman/internal/core"
	"conman/internal/nm"
	"conman/internal/topo"
)

// appliedGRE builds Fig 4 with the GRE VPN reconciled and verified,
// returning the testbed and the intent's name.
func appliedGRE(t *testing.T, token uint32) (*Testbed, string) {
	t.Helper()
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	intent := VPNIntent(Fig4Goal(), "GRE-IP tunnel")
	if err := tb.NM.Submit(intent); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.NM.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if err := tb.VerifyConnectivity(token); err != nil {
		t.Fatalf("after apply: %v", err)
	}
	return tb, intent.Name
}

// drain returns what the subscription holds. The hub delivers
// synchronously, so every event the call before caused is in it.
func drain(events <-chan nm.Event) []nm.Event {
	var seen []nm.Event
	for len(events) > 0 {
		seen = append(seen, <-events)
	}
	return seen
}

// TestNMOrderedPipeDeleteRaisesNoEvent withdraws the GRE VPN: the
// reconcile deletes its tunnel pipes, and the NM hears of that only in
// the batch replies — no notify arrives and no event is published.
func TestNMOrderedPipeDeleteRaisesNoEvent(t *testing.T) {
	tb, name := appliedGRE(t, 96100)
	events, cancel := tb.NM.Subscribe(64)
	defer cancel()
	before := tb.NM.Counters().NotifyRecv

	if err := tb.NM.Withdraw(name); err != nil {
		t.Fatal(err)
	}
	plan, err := tb.NM.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	pipes := 0
	for _, ds := range plan.Deletes {
		for _, item := range ds.Items {
			if item.Delete != nil && item.Delete.Req.Kind == core.ComponentPipe {
				pipes++
			}
		}
	}
	if pipes == 0 {
		t.Fatal("the withdrawal deleted no pipe")
	}
	if seen := drain(events); len(seen) != 0 {
		t.Errorf("the NM's own %d pipe deletes published %+v", pipes, seen)
	}
	if got := tb.NM.Counters().NotifyRecv - before; got != 0 {
		t.Errorf("the NM's own %d pipe deletes drew %d notifies, want 0", pipes, got)
	}
}

// TestOutOfBandPipeDeleteNotifiesOnce deletes the same tunnel pipe
// behind the NM's back: the MA reports it with exactly one
// pipe-deleted notify, from the pipe's lower module.
func TestOutOfBandPipeDeleteNotifiesOnce(t *testing.T) {
	tb, _ := appliedGRE(t, 96200)
	events, cancel := tb.NM.Subscribe(64)
	defer cancel()
	before := tb.NM.Counters().NotifyRecv

	gre := core.Ref(core.NameGRE, "A", "l")
	if err := tb.Devices["A"].MA.Delete(core.DeleteRequest{
		Kind: core.ComponentPipe, Module: gre, ID: "P1",
	}); err != nil {
		t.Fatal(err)
	}
	seen := drain(events)
	if len(seen) != 1 {
		t.Fatalf("out-of-band pipe delete published %d events (%+v), want 1", len(seen), seen)
	}
	ev := seen[0]
	if ev.Kind != nm.EventNotify || ev.What != "pipe-deleted" || ev.Detail != "P1" || ev.Device != "A" {
		t.Errorf("event = %+v, want a pipe-deleted notify for A's P1", ev)
	}
	if got := tb.NM.Counters().NotifyRecv - before; got != 1 {
		t.Errorf("out-of-band pipe delete drew %d notifies, want 1", got)
	}
}

// TestRingWireCutTakesTwoPasses cuts a wire on an intent's path in the
// chaos-repair fabric (ring-64, two VLAN intents, under the daemon).
// The two carrier-loss topology events coalesce into one rerouting
// pass, and one more pass confirms convergence: exactly 2, read from
// conman_reconcile_runs_total. An NM that heard its own pipe deletes
// as events would pay a third.
func TestRingWireCutTakesTwoPasses(t *testing.T) {
	w, err := topo.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	tb, pairs, d, stop := startConverged(t, w, 2, nm.DaemonConfig{})
	defer stop()

	pair := pairs[0]
	var devices []core.DeviceID
	for _, ih := range d.Status().Intents {
		if ih.Name == pair.Intent("").Name {
			devices = ih.Devices
		}
	}
	on := make(map[core.DeviceID]bool, len(devices))
	for _, dev := range devices {
		on[dev] = true
	}
	end := mustPairs(t, w, len(pairs))[pair.Index-1]
	victim := ""
	for _, wi := range w.Wires {
		if on[wi.A.Device] && on[wi.B.Device] &&
			w.ConnectedWithout(map[string]bool{wi.Name: true}, nil, end.A, end.B) {
			victim = wi.Name
			break
		}
	}
	if victim == "" {
		t.Fatalf("intent %s has no cuttable wire on its path", pair.Intent("").Name)
	}

	passes := counterValue(t, d.Metrics(), "conman_reconcile_runs_total")
	topology := counterValue(t, d.Metrics(), "conman_events_topology_total")
	notifies := counterValue(t, d.Metrics(), "conman_events_notify_total")
	gen := d.ConvergeGen()
	if err := tb.Net.SetMediumUp(victim, false); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitConverged(gen, daemonWait); err != nil {
		t.Fatalf("convergence after cutting %s: %v", victim, err)
	}
	verifyAll(t, tb, pairs, 98500)

	if got := counterValue(t, d.Metrics(), "conman_reconcile_runs_total") - passes; got != 2 {
		t.Errorf("cutting %s took %d reconcile passes, want 2", victim, got)
	}
	if got := counterValue(t, d.Metrics(), "conman_events_topology_total") - topology; got != 2 {
		t.Errorf("cutting %s raised %d topology events, want 2", victim, got)
	}
	if got := counterValue(t, d.Metrics(), "conman_events_notify_total") - notifies; got != 0 {
		t.Errorf("cutting %s raised %d notify events, want 0", victim, got)
	}
}
