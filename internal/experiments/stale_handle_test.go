package experiments

// Regression test for the §II-E dependency-churn bug: the IP module's
// classified-ingress route embeds the MPLS module's NHLFE key (an
// opaque low-level handle obtained via listFieldsAndValues). Kernel
// NHLFE keys are allocated sequentially and never reused, so when the
// MPLS~ETH pipe is killed and reconciliation recreates it, the new
// push rule gets a FRESH key — and a diff that compares only the
// abstract and resolved rule fields keeps the old IP route pointing at
// a deleted NHLFE: a silent black hole. The fix records the embedded
// handle (SwitchRuleState.HandleResolved), probes the provider's
// current fields at diff time, and replaces the consumer rule when
// they diverge — plus an installTrigger on the provider component so
// the churn reaches the daemon as a push event.

import (
	"testing"

	"conman/internal/core"
	"conman/internal/nm"
)

// TestDaemonHealsStaleNHLFE kills the MPLS~ETH pipe on ingress router A
// under the daemon. The repair is partial — only A's components churn,
// the rest of the LSP stays in place — and the kept-vs-replaced
// decision for the IP route is exactly what the §II-E handle tracking
// exists to get right: delivery must resume with the route rewritten
// to the regenerated NHLFE key, with zero test-initiated Reconciles
// and no full teardown and re-apply.
func TestDaemonHealsStaleNHLFE(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	intent := VPNIntent(Fig4Goal(), "MPLS")
	if err := tb.NM.Submit(intent); err != nil {
		t.Fatal(err)
	}
	d, stop := tb.StartDaemon(nm.DaemonConfig{})
	defer stop()
	if err := d.WaitConverged(0, daemonWait); err != nil {
		t.Fatalf("initial convergence: %v", err)
	}
	if err := tb.VerifyConnectivity(97000); err != nil {
		t.Fatalf("after initial convergence: %v", err)
	}

	// Locate the MPLS module's down pipe on A (MPLS o over ETH b) and
	// remember the NHLFE keys the ingress routes currently embed.
	mplsRef := core.Ref(core.NameMPLS, "A", "o")
	states, err := tb.NM.ShowActual("A")
	if err != nil {
		t.Fatal(err)
	}
	var downPipe core.PipeID
	for _, st := range states {
		if st.Ref != mplsRef {
			continue
		}
		for _, ps := range st.Pipes {
			if ps.End == core.EndDown {
				downPipe = ps.ID
			}
		}
	}
	if downPipe == "" {
		t.Fatalf("no down pipe found for %s", mplsRef)
	}
	kernelA := tb.Devices["A"].Kernel
	oldKeys := map[int]bool{}
	for _, rt := range kernelA.Routes("main") {
		if rt.MPLSKey > 0 {
			oldKeys[rt.MPLSKey] = true
		}
	}
	if len(oldKeys) == 0 {
		t.Fatal("no MPLS ingress route installed on A")
	}
	installedBaseline := counterValue(t, d.Metrics(), "conman_components_installed_total")

	// The fault: kill the MPLS~ETH pipe. The MA's undo clears the push
	// rule (deleting its NHLFEs) and the §II-E trigger plus the
	// pipe-deleted notify reach the daemon; nobody calls Reconcile.
	gen := d.ConvergeGen()
	if err := tb.NM.Delete(core.DeleteRequest{
		Kind: core.ComponentPipe, Module: mplsRef, ID: string(downPipe),
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitConverged(gen, daemonWait); err != nil {
		t.Fatalf("convergence after pipe kill: %v", err)
	}

	// Delivery resumed: the kept-or-replaced decision went the right way.
	if err := tb.VerifyConnectivity(97100); err != nil {
		t.Fatalf("black hole after repair — stale NHLFE handle kept: %v", err)
	}
	// The route now references a live, regenerated NHLFE: keys are
	// allocated sequentially and never reused, so surviving on the old
	// key would mean the diff wrongly kept the stale route.
	found := false
	for _, rt := range kernelA.Routes("main") {
		if rt.MPLSKey <= 0 {
			continue
		}
		found = true
		if oldKeys[rt.MPLSKey] {
			t.Errorf("ingress route still embeds pre-kill NHLFE key %d", rt.MPLSKey)
		}
		if !kernelA.HasNHLFE(rt.MPLSKey) {
			t.Errorf("ingress route references missing NHLFE %d (black hole)", rt.MPLSKey)
		}
	}
	if !found {
		t.Error("no MPLS ingress route on A after repair")
	}
	// The repair was partial: far fewer components were (re)installed
	// than the initial from-scratch configuration.
	healInstalled := counterValue(t, d.Metrics(), "conman_components_installed_total") - installedBaseline
	if healInstalled == 0 {
		t.Error("repair installed nothing — fault not observed")
	}
	if healInstalled >= installedBaseline {
		t.Errorf("repair reinstalled %d of %d components — not a partial re-apply",
			healInstalled, installedBaseline)
	}
	// The provider's trigger fired (§II-E push path).
	if counterValue(t, d.Metrics(), "conman_events_trigger_total") == 0 {
		t.Error("no dependency trigger processed — installTrigger wiring broken")
	}
}
