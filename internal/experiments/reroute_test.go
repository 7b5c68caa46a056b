package experiments

import (
	"testing"

	"conman/internal/core"
	"conman/internal/nm"
)

// deviceConfigured reports whether the device has any NM-created pipes
// or switch rules.
func deviceConfigured(t *testing.T, tb *Testbed, dev core.DeviceID) bool {
	t.Helper()
	states, err := tb.NM.ShowActual(dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		if len(st.SwitchRules) > 0 {
			return true
		}
		for _, ps := range st.Pipes {
			if ps.End != core.EndPhy {
				return true
			}
		}
	}
	return false
}

func pathDevices(p *nm.Path) map[core.DeviceID]bool {
	out := map[core.DeviceID]bool{}
	for _, h := range p.Hops {
		out[h.Node.Ref.Device] = true
	}
	return out
}

// TestReroutePrunesStrandedDevice is the failure-recovery scenario the
// Intent API unlocks: the applied path runs through transit B1; the
// A-B1 wire is cut and the affected devices re-report topology;
// re-applying the same intent routes through B2, renegotiates the VLAN
// with the new neighbour (the kept pipes' peers changed, so they are
// churned), AND prunes every component the old path left on B1 —
// because the NM remembers which devices the intent touched.
func TestReroutePrunesStrandedDevice(t *testing.T) {
	tb, pairs, err := BuildDiamondShared(1)
	if err != nil {
		t.Fatal(err)
	}
	intent := pairs[0].Intent("VLAN tunnel")
	plan, err := tb.NM.Plan(intent)
	if err != nil {
		t.Fatal(err)
	}
	if on := pathDevices(plan.Views[0].Path); !on["B1"] || on["B2"] {
		t.Fatalf("expected initial path via B1 only, got %s", plan.Views[0].Path.Modules())
	}
	if err := tb.NM.Apply(plan); err != nil {
		t.Fatal(err)
	}
	if err := tb.VerifyPair(pairs[0], 95000); err != nil {
		t.Fatalf("via B1: %v", err)
	}

	// The A-B1 wire is cut; the affected devices re-report topology
	// (the paper's failure notification model, §II-D).
	if err := tb.Net.SetMediumUp("A-B1", false); err != nil {
		t.Fatal(err)
	}
	for _, id := range []core.DeviceID{"A", "B1"} {
		if err := tb.Devices[id].MA.ReportTopology(); err != nil {
			t.Fatal(err)
		}
	}

	replan, err := tb.NM.Plan(intent)
	if err != nil {
		t.Fatal(err)
	}
	if on := pathDevices(replan.Views[0].Path); on["B1"] || !on["B2"] {
		t.Fatalf("expected rerouted path via B2, got %s", replan.Views[0].Path.Modules())
	}
	prunesB1 := false
	for _, ds := range replan.Deletes {
		if ds.Device == "B1" {
			prunesB1 = true
		}
	}
	if !prunesB1 {
		t.Fatalf("replan does not prune stranded device B1:\n%s", replan.Render())
	}
	if err := tb.NM.Apply(replan); err != nil {
		t.Fatal(err)
	}
	if err := tb.VerifyPair(pairs[0], 95100); err != nil {
		t.Fatalf("via B2: %v", err)
	}
	if deviceConfigured(t, tb, "B1") {
		t.Error("stranded device B1 still carries configuration after reroute")
	}
	// Reconciliation converged: a further plan is empty.
	again, err := tb.NM.Plan(intent)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Empty() {
		t.Errorf("plan after reroute not empty:\n%s", again.Render())
	}

	// Withdrawing the intent clears its record and every remaining
	// device.
	if err := tb.NM.Withdraw(intent.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.NM.Reconcile(); err != nil {
		t.Fatal(err)
	}
	for _, dev := range []core.DeviceID{"A", "B2", "C"} {
		if deviceConfigured(t, tb, dev) {
			t.Errorf("device %s still configured after withdraw", dev)
		}
	}
}
