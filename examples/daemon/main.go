// Daemon: autonomous reconciliation. Two customer VPNs run over the
// shared-core diamond under the reconciliation daemon; the program
// cuts the wire both of them ride and never calls Reconcile — the cut
// surfaces as carrier-loss topology re-reports, the daemon wakes on the
// first, collects them into a dirty set and reconciles until the
// network converges, and both VPNs come back over the standby arm.
package main

import (
	"fmt"
	"log"
	"time"

	"conman"
)

// wait bounds each convergence; the daemon is typically done in tens
// of milliseconds.
const wait = 15 * time.Second

func main() {
	tb, pairs, err := conman.BuildDiamondShared(2)
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	for _, p := range pairs {
		if err := tb.NM.Submit(p.Intent("VLAN tunnel")); err != nil {
			log.Fatal(err)
		}
	}

	// Start the control loop. The daemon reconciles immediately, so the
	// initial configuration also needs no explicit call.
	d, stop := tb.StartDaemon(conman.DaemonConfig{})
	defer stop()
	if err := d.WaitConverged(0, wait); err != nil {
		log.Fatal(err)
	}
	report(d, "after initial convergence")
	for i, p := range pairs {
		if err := tb.VerifyPair(p, uint32(7000+100*i)); err != nil {
			log.Fatalf("pair %d: %v", p.Index, err)
		}
	}
	fmt.Println("both customer pairs deliver — configured by the daemon alone")

	// The fault. Both VPNs tunnel via transit switch B1; cutting A-B1
	// strands them. Nobody calls Reconcile from here on.
	gen := d.ConvergeGen()
	fmt.Println("\ncutting wire A-B1 ...")
	if err := tb.Net.SetMediumUp("A-B1", false); err != nil {
		log.Fatal(err)
	}
	if err := d.WaitConverged(gen, wait); err != nil {
		log.Fatal(err)
	}
	report(d, "after autonomous healing")
	for i, p := range pairs {
		if err := tb.VerifyPair(p, uint32(7500+100*i)); err != nil {
			log.Fatalf("pair %d after heal: %v", p.Index, err)
		}
	}
	fmt.Println("both customer pairs deliver again — rerouted via B2, no operator")
}

// report prints the daemon's own view: the same data `conman doctor`
// renders from /status.
func report(d *conman.Daemon, when string) {
	st := d.Status()
	fmt.Printf("\n%s: healthy=%v (generation %d)\n", when, st.Healthy(), st.ConvergeGen)
	for _, h := range st.Intents {
		fmt.Printf("  intent %s: devices %v, %d exclusive / %d shared components\n",
			h.Name, h.Devices, h.Exclusive, h.Shared)
	}
}
