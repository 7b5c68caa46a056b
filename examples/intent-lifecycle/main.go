// Command intent-lifecycle walks the declarative API end to end on the
// paper's Fig 4 testbed: dry-run plan, apply, idempotent re-plan,
// failure repair, and teardown by withdrawal.
package main

import (
	"fmt"
	"log"

	"conman"
)

func main() {
	tb, err := conman.BuildFig4()
	if err != nil {
		log.Fatal(err)
	}
	intent := conman.VPNIntent(conman.Fig4Goal(), "GRE-IP tunnel")

	// 1. Plan registers the intent in the NM's store and diffs it against
	// the live network. It is a dry run: nothing is sent until Apply.
	plan, err := tb.NM.Plan(intent)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan.Render())

	// 2. Apply reconciles the network toward the intent.
	if err := tb.NM.Apply(plan); err != nil {
		log.Fatal(err)
	}
	fmt.Println("applied.")

	// 3. A second Plan is empty: Apply is idempotent.
	again, err := tb.NM.Plan(intent)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-plan empty: %v (%d components in place)\n", again.Empty(), again.InPlace)

	// 4. Kill a component out of band (the g/l pipe carrying the GRE
	// tunnel on router A); the next cycle heals exactly the damage.
	if err := tb.Devices["A"].MA.Delete(conman.DeleteRequest{
		Kind:   conman.ComponentPipe,
		Module: conman.Ref(conman.NameGRE, "A", "l"),
		ID:     "P1",
	}); err != nil {
		log.Fatal(err)
	}
	repair, err := tb.NM.Plan(intent)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after failure:\n%s", repair.Render())
	if err := tb.NM.Apply(repair); err != nil {
		log.Fatal(err)
	}
	fmt.Println("healed.")

	// 5. Withdrawing the intent and reconciling tears the whole path back
	// down: nothing registered wants its components any more.
	if err := tb.NM.Withdraw(intent.Name); err != nil {
		log.Fatal(err)
	}
	down, err := tb.NM.Reconcile()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("withdrawn: %d device batches deleted; path gone.\n", len(down.Deletes))
}
