// vpn-mpls reproduces the paper's Fig 8 scenario: the same high-level
// goal as the GRE example, but the NM is told to realise it as an MPLS
// LSP — the CONMan script barely changes while the device-level
// configuration is completely different (label allocation, ILM/NHLFE
// cross-connects). That indifference of the management plane to the
// data-plane technology is the paper's central claim.
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
	// The NM's event feed carries what modules report unsolicited;
	// subscribe before configuring so nothing is missed.
	events, cancel := tb.NM.Subscribe(0)
	defer cancel()

	path, scripts, err := conman.ConfigureVPN(tb, conman.Fig4Goal(), "MPLS")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("configured path: %s\n\n", path.Modules())

	fmt.Println("CONMan scripts (Fig 8b):")
	for _, s := range scripts {
		fmt.Printf("--- %s\n%s\n", s.Device, s.Script())
	}

	fmt.Println("\nlabel-switching state derived by the modules:")
	for _, dev := range []conman.DeviceID{"A", "B", "C"} {
		fmt.Printf("--- %s\n", dev)
		for _, l := range tb.Devices[dev].Kernel.ExecLog() {
			fmt.Println("  " + l)
		}
	}

	if err := tb.VerifyConnectivity(8); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nverified: site S1 <-> S2 traffic rides the LSP, label-swapped at B")

	// The far-end LSR reported establishment to the NM unsolicited.
	for {
		select {
		case ev := <-events:
			if ev.Kind.String() == "notify" {
				fmt.Printf("notification: %s from %s\n", ev.What, ev.Module)
			}
		default:
			return
		}
	}
}
