// Multi-intent: the NM holds all the goals. Two customer VPNs cross the
// same diamond of switches; the intent store configures their union in
// one Reconcile (shared transit state created once and refcounted),
// proves reconciliation is idempotent, and then withdraws one VPN —
// removing exactly its unshared components while the other keeps
// delivering.
package main

import (
	"fmt"
	"log"

	"conman"
)

func main() {
	// The shared-core diamond: customer pairs (D1,E1) and (D2,E2) on
	// edge switches A and C, transit switches B1 and B2. Both VPNs must
	// coexist on every managed device.
	tb, pairs, err := conman.BuildDiamondShared(2)
	if err != nil {
		log.Fatal(err)
	}

	// Register both goals. Submitting sends nothing — the store is
	// desired state, and Reconcile derives configuration from its union.
	for _, p := range pairs {
		if err := tb.NM.Submit(p.Intent("VLAN tunnel")); err != nil {
			log.Fatal(err)
		}
	}
	plan, err := tb.NM.PlanStore()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("dry run of the union of both goals:")
	fmt.Print(plan.Render())

	// Reconcile: shared pipes and switch rules are configured once.
	if err := tb.NM.Apply(plan); err != nil {
		log.Fatal(err)
	}
	for _, p := range pairs {
		if err := tb.VerifyPair(p, uint32(4000+100*p.Index)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nboth customer pairs verified over the shared core")

	// Idempotence: reconciling again observes, matches, sends nothing.
	again, err := tb.NM.Reconcile()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-reconcile: empty=%v (%d components in place, %d shared)\n",
		again.Empty(), again.InPlace, again.Shared)

	// Withdraw one VPN: only its unshared components (the customer-port
	// classification at the edges) are deleted.
	if err := tb.NM.Withdraw("vpn-c1"); err != nil {
		log.Fatal(err)
	}
	down, err := tb.NM.Reconcile()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwithdrawal of vpn-c1 executed:")
	for _, ds := range down.Deletes {
		for _, line := range ds.Rendered {
			fmt.Printf("  %s: %s\n", ds.Device, line)
		}
	}
	if err := tb.VerifyPair(pairs[1], 4500); err != nil {
		log.Fatal(err)
	}
	fmt.Println("vpn-c2 still delivers — shared components survived the withdrawal")
}
