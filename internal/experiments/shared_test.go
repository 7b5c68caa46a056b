package experiments

import (
	"fmt"
	"testing"

	"conman/internal/core"
)

// TestSharedCoreCoexistence is the regression test for the ROADMAP's
// shared-device pruning limitation: with the single-intent Plan, applying
// intent B on devices shared with intent A pruned A's components. With
// the intent store, Reconcile after Submit(B) must leave A's delivery
// intact — the two VPNs cross the same edge and transit switches, their
// shared pipes and rules are configured once, and a further Reconcile
// sends zero commands.
func TestSharedCoreCoexistence(t *testing.T) {
	tb, pairs, err := BuildDiamondShared(2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pairs[0].Intent("VLAN tunnel"), pairs[1].Intent("VLAN tunnel")

	if err := tb.NM.Submit(a); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.NM.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if err := tb.VerifyPair(pairs[0], 96000); err != nil {
		t.Fatalf("pair 1 after first reconcile: %v", err)
	}

	// The old limitation: planning B would have deleted A's components
	// on the shared devices. The store-wide Reconcile must not.
	if err := tb.NM.Submit(b); err != nil {
		t.Fatal(err)
	}
	plan, err := tb.NM.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Deletes) != 0 {
		t.Errorf("reconcile after Submit(B) pruned intent A's components:\n%s", plan.Render())
	}
	if plan.Shared == 0 {
		t.Errorf("no shared components across the two VPNs:\n%s", plan.Render())
	}
	if err := tb.VerifyPair(pairs[0], 96100); err != nil {
		t.Errorf("pair 1 delivery broken by pair 2's configuration: %v", err)
	}
	if err := tb.VerifyPair(pairs[1], 96200); err != nil {
		t.Errorf("pair 2 after reconcile: %v", err)
	}

	// Idempotence: a further Reconcile observes only, sends nothing.
	before := tb.NM.Counters()
	again, err := tb.NM.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !again.Empty() {
		t.Errorf("second reconcile not empty:\n%s", again.Render())
	}
	if after := tb.NM.Counters(); before != after {
		t.Errorf("second reconcile sent traffic: before %+v, after %+v", before, after)
	}
}

// TestWithdrawRemovesOnlyUnshared continues the shared-core scenario:
// withdrawing one VPN must delete exactly its unshared components (the
// customer-port classification at the edges) and leave every shared
// pipe, transit rule and the other VPN's delivery untouched; withdrawing
// the last VPN then clears the remaining devices completely.
func TestWithdrawRemovesOnlyUnshared(t *testing.T) {
	tb, pairs, err := BuildDiamondShared(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if err := tb.NM.Submit(p.Intent("VLAN tunnel")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.NM.Reconcile(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		if err := tb.VerifyPair(p, uint32(97000+100*i)); err != nil {
			t.Fatalf("pair %d before withdraw: %v", p.Index, err)
		}
	}

	if err := tb.NM.Withdraw("vpn-c1"); err != nil {
		t.Fatal(err)
	}
	plan, err := tb.NM.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Creates) != 0 {
		t.Errorf("withdraw reconcile created components:\n%s", plan.Render())
	}
	if len(plan.Deletes) == 0 {
		t.Fatalf("withdraw reconcile deleted nothing:\n%s", plan.Render())
	}
	for _, ds := range plan.Deletes {
		if ds.Device == "B1" || ds.Device == "B2" {
			t.Errorf("withdraw pruned shared transit device %s:\n%s", ds.Device, ds.Script())
		}
		for _, item := range ds.Items {
			if item.Delete != nil && item.Delete.Req.Kind == core.ComponentPipe {
				t.Errorf("withdraw deleted a shared pipe on %s: %s", ds.Device, item.Delete.Req.ID)
			}
		}
	}
	// The surviving VPN still delivers; the withdrawn one is dark.
	if err := tb.VerifyPair(pairs[1], 97500); err != nil {
		t.Errorf("surviving pair broken by withdraw: %v", err)
	}
	d := tb.Customer[pairs[0].D]
	if err := d.SendProbeFrom(pairs[0].SrcIP, pairs[0].DstIP, 97600); err != nil {
		t.Fatal(err)
	}
	tb.Net.Flush()
	for _, tok := range tb.Customer[pairs[0].E].ProbeEchoes() {
		if tok == 97600 {
			t.Error("withdrawn pair still delivers")
		}
	}

	// Withdrawing the last intent clears everything.
	if err := tb.NM.Withdraw("vpn-c2"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.NM.Reconcile(); err != nil {
		t.Fatal(err)
	}
	for _, dev := range []core.DeviceID{"A", "B1", "B2", "C"} {
		if deviceConfigured(t, tb, dev) {
			t.Errorf("device %s still configured after last withdraw", dev)
		}
	}
}

// TestWithdrawLastTearsDown pins teardown on the Fig 4 routed testbed:
// withdrawing the only registered intent and reconciling deletes its
// whole path — the GRE self-test reports the path gone, probes stop, no
// device keeps an NM-created component — and re-submitting plans pure
// creation again.
func TestWithdrawLastTearsDown(t *testing.T) {
	intent := VPNIntent(Fig4Goal(), "GRE-IP tunnel")
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.NM.Submit(intent); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.NM.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if err := tb.VerifyConnectivity(98000); err != nil {
		t.Fatalf("after reconcile: %v", err)
	}
	if err := tb.NM.Withdraw(intent.Name); err != nil {
		t.Fatal(err)
	}
	down, err := tb.NM.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if len(down.Deletes) == 0 {
		t.Fatal("withdraw reconcile deleted nothing")
	}

	ok, detail, err := tb.NM.SelfTest(core.Ref(core.NameGRE, "A", "l"), "P1")
	if err != nil {
		t.Fatalf("selfTest: %v", err)
	}
	if ok {
		t.Errorf("GRE self-test still passes: %s", detail)
	}
	for _, dev := range []core.DeviceID{"A", "B", "C"} {
		if deviceConfigured(t, tb, dev) {
			t.Errorf("device %s still configured", dev)
		}
	}
	d, e := tb.Customer["D"], tb.Customer["E"]
	if err := d.SendProbeFrom(ip("10.0.1.1"), ip("10.0.2.1"), 98100); err != nil {
		t.Fatal(err)
	}
	tb.Net.Flush()
	for _, tok := range e.ProbeEchoes() {
		if tok == 98100 {
			t.Error("probe still delivered after withdraw")
		}
	}
	// Re-submitting plans pure creation, and the network heals.
	if err := tb.NM.Submit(intent); err != nil {
		t.Fatal(err)
	}
	replan, err := tb.NM.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if len(replan.Creates) == 0 || len(replan.Deletes) != 0 {
		t.Errorf("post-withdraw resubmit is not pure creation:\n%s", replan.Render())
	}
	if err := tb.VerifyConnectivity(98200); err != nil {
		t.Fatalf("after resubmit: %v", err)
	}
}

// TestDestroyRetiresStoreOccupancy pins that tearing an intent down
// leaves no occupancy record behind — otherwise every later Reconcile
// keeps re-observing the devices it once occupied as "stranded",
// forever. The intent goes in through Plan+Apply and out through
// Withdraw+Reconcile.
func TestDestroyRetiresStoreOccupancy(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	intent := VPNIntent(Fig4Goal(), "GRE-IP tunnel")
	plan, err := tb.NM.Plan(intent)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.NM.Apply(plan); err != nil {
		t.Fatal(err)
	}
	if err := tb.NM.Withdraw(intent.Name); err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		plan, err := tb.NM.Reconcile()
		if err != nil {
			t.Fatal(err)
		}
		if pass == 1 && len(plan.Deletes) == 0 {
			t.Errorf("pass 1 after withdraw deletes nothing:\n%s", plan.Render())
		}
		if pass == 2 && !plan.Empty() {
			t.Errorf("pass 2 after withdraw is not empty:\n%s", plan.Render())
		}
		if pass == 2 && plan.Stats.Observed != 0 {
			t.Errorf("pass %d observed %d devices of an empty store (leaked occupancy)", pass, plan.Stats.Observed)
		}
	}
	for _, dev := range []core.DeviceID{"A", "B", "C"} {
		if got := tb.NM.IntentsOn(dev); len(got) != 0 {
			t.Errorf("device %s still recorded as occupied by %v", dev, got)
		}
	}
}

// TestPlanKeepsStoreIntentsOnSharedDevices is the regression for the
// blackhole two configuration lifecycles caused: pair 1 is submitted and
// reconciled, then pair 2 goes through Plan+Apply on the same shared
// devices. Plan must treat pair 1's components as wanted, not stale, so
// both pairs deliver and a following Reconcile has nothing to flip back.
func TestPlanKeepsStoreIntentsOnSharedDevices(t *testing.T) {
	tb, pairs, err := BuildDiamondShared(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.NM.Submit(pairs[0].Intent("VLAN tunnel")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.NM.Reconcile(); err != nil {
		t.Fatal(err)
	}
	plan, err := tb.NM.Plan(pairs[1].Intent("VLAN tunnel"))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Deletes) != 0 {
		t.Errorf("planning pair 2 deletes pair 1's components:\n%s", plan.Render())
	}
	if err := tb.NM.Apply(plan); err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		if err := tb.VerifyPair(p, uint32(98500+100*i)); err != nil {
			t.Errorf("pair %d after pair 2's Plan+Apply: %v", p.Index, err)
		}
	}
	again, err := tb.NM.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !again.Empty() {
		t.Errorf("reconcile after Plan+Apply is not empty:\n%s", again.Render())
	}
}

// TestStoreHealsKilledPipe is the store-level failure-repair loop: one
// configured pipe is killed out of band, and the next Reconcile must
// observe the damage and repair exactly it — creates land only on the
// damaged device, every other intent component stays untouched.
func TestStoreHealsKilledPipe(t *testing.T) {
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
	if err := tb.VerifyConnectivity(99000); err != nil {
		t.Fatalf("before failure: %v", err)
	}
	if err := tb.NM.Delete(core.DeleteRequest{
		Kind: core.ComponentPipe, Module: core.Ref(core.NameGRE, "A", "l"), ID: "P1",
	}); err != nil {
		t.Fatal(err)
	}
	repair, err := tb.NM.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if repair.Empty() {
		t.Fatal("reconcile after pipe kill is empty — damage not observed")
	}
	for _, ds := range repair.Creates {
		if ds.Device != "A" {
			t.Errorf("repair touches %s:\n%s", ds.Device, ds.Script())
		}
	}
	if err := tb.VerifyConnectivity(99100); err != nil {
		t.Fatalf("after repair: %v", err)
	}
}

// TestStoreRerouteKeepsOtherIntent combines failure rerouting with the
// store: both VPNs run via transit B1; the A-B1 wire is cut and the
// affected devices re-report topology. One Reconcile must migrate both
// VPNs to B2, prune everything stranded on B1, and keep both customer
// pairs delivering.
func TestStoreRerouteKeepsOtherIntent(t *testing.T) {
	tb, pairs, err := BuildDiamondShared(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if err := tb.NM.Submit(p.Intent("VLAN tunnel")); err != nil {
			t.Fatal(err)
		}
	}
	first, err := tb.NM.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range first.Views {
		if on := pathDevices(v.Path); !on["B1"] || on["B2"] {
			t.Fatalf("intent %q not initially via B1: %s", v.Intent.Name, v.Path.Modules())
		}
	}

	if err := tb.Net.SetMediumUp("A-B1", false); err != nil {
		t.Fatal(err)
	}
	for _, id := range []core.DeviceID{"A", "B1"} {
		if err := tb.Devices[id].MA.ReportTopology(); err != nil {
			t.Fatal(err)
		}
	}

	replan, err := tb.NM.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	prunesB1 := false
	for _, ds := range replan.Deletes {
		if ds.Device == "B1" {
			prunesB1 = true
		}
	}
	if !prunesB1 {
		t.Errorf("reroute reconcile does not prune stranded B1:\n%s", replan.Render())
	}
	if deviceConfigured(t, tb, "B1") {
		t.Error("stranded device B1 still carries configuration")
	}
	for i, p := range pairs {
		if err := tb.VerifyPair(p, uint32(99500+100*i)); err != nil {
			t.Errorf("pair %d after reroute: %v", p.Index, err)
		}
	}
	again, err := tb.NM.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !again.Empty() {
		t.Errorf("reconcile after reroute not converged:\n%s", again.Render())
	}
}

// TestLinearSharedGoals scales the store to k concurrent goals over one
// shared n-switch core, at the Table VI chain lengths n=16 and n=64:
// one Reconcile configures all pairs, transit state is shared k ways,
// withdrawal keeps the shared core for the surviving pairs, and the
// final withdrawal clears it.
func TestLinearSharedGoals(t *testing.T) {
	const k = 2
	for _, n := range []int{16, 64} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			if testing.Short() && n > 16 {
				t.Skip("short mode")
			}
			tb, pairs, err := BuildLinearVLANShared(n, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				if err := tb.NM.Submit(p.Intent("VLAN tunnel")); err != nil {
					t.Fatal(err)
				}
			}
			plan, err := tb.NM.Reconcile()
			if err != nil {
				t.Fatal(err)
			}
			if plan.Shared == 0 {
				t.Errorf("no shared components on the %d-switch core", n)
			}
			for i, p := range pairs {
				if err := tb.VerifyPair(p, uint32(100000+1000*n+100*i)); err != nil {
					t.Fatalf("pair %d at n=%d: %v", p.Index, n, err)
				}
			}
			again, err := tb.NM.Reconcile()
			if err != nil {
				t.Fatal(err)
			}
			if !again.Empty() {
				t.Errorf("n=%d reconcile not idempotent:\n%s", n, again.Render())
			}

			// Withdraw the first pair: the shared core must survive for
			// the second.
			if err := tb.NM.Withdraw(pairs[0].Intent("VLAN tunnel").Name); err != nil {
				t.Fatal(err)
			}
			down, err := tb.NM.Reconcile()
			if err != nil {
				t.Fatal(err)
			}
			mid := rid(n / 2)
			for _, ds := range down.Deletes {
				if ds.Device == mid {
					t.Errorf("withdraw pruned shared transit %s:\n%s", mid, ds.Script())
				}
			}
			if err := tb.VerifyPair(pairs[1], uint32(101000+1000*n)); err != nil {
				t.Errorf("surviving pair at n=%d: %v", n, err)
			}
			if !deviceConfigured(t, tb, mid) {
				t.Errorf("transit %s lost its shared configuration", mid)
			}

			// Withdraw the last pair: the whole chain goes dark.
			if err := tb.NM.Withdraw(pairs[1].Intent("VLAN tunnel").Name); err != nil {
				t.Fatal(err)
			}
			if _, err := tb.NM.Reconcile(); err != nil {
				t.Fatal(err)
			}
			for _, dev := range []core.DeviceID{rid(1), mid, rid(n)} {
				if deviceConfigured(t, tb, dev) {
					t.Errorf("device %s still configured after last withdraw", dev)
				}
			}
		})
	}
}
