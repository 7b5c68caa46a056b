package main

import (
	"fmt"
	"os"

	"conman/internal/experiments"
	"conman/internal/nm"
)

// scenario resolves a lifecycle scenario name to its testbed builder and
// intent.
func scenario(name string) (func() (*experiments.Testbed, error), nm.Intent, error) {
	switch name {
	case "gre":
		return experiments.BuildFig4, experiments.VPNIntent(experiments.Fig4Goal(), "GRE-IP tunnel"), nil
	case "mpls":
		return experiments.BuildFig4, experiments.VPNIntent(experiments.Fig4Goal(), "MPLS"), nil
	case "vlan":
		return experiments.BuildFig9, experiments.VPNIntent(experiments.Fig9Goal(), "VLAN tunnel"), nil
	}
	return nil, nm.Intent{}, fmt.Errorf("unknown scenario %q (want gre, mpls or vlan)", name)
}

// dryRunFlag splits the -dry-run flag (accepted anywhere on the command
// line) from the positional arguments.
func dryRunFlag(args []string) (dryRun bool, rest []string) {
	for _, a := range args {
		if a == "-dry-run" || a == "--dry-run" {
			dryRun = true
			continue
		}
		rest = append(rest, a)
	}
	return dryRun, rest
}

func runIntent(cmd string, args []string) error {
	dryRun, names := dryRunFlag(args)
	if len(names) != 1 {
		usage(os.Stderr)
		return fmt.Errorf("%s needs exactly one scenario", cmd)
	}
	build, intent, err := scenario(names[0])
	if err != nil {
		return err
	}
	tb, err := build()
	if err != nil {
		return err
	}
	defer tb.Close()

	plan, err := tb.NM.Plan(intent)
	if err != nil {
		return err
	}
	fmt.Print(plan.Render())
	if cmd == "plan" || (cmd == "apply" && dryRun) {
		fmt.Println("dry run: no commands sent")
		return nil
	}

	if err := tb.NM.Apply(plan); err != nil {
		return err
	}
	c := tb.NM.Counters()
	fmt.Printf("applied: %d messages sent, %d received\n", c.Sent(), c.Received())
	if err := tb.VerifyConnectivity(4242); err != nil {
		return fmt.Errorf("data-plane verification: %w", err)
	}
	fmt.Println("data plane verified: probes delivered both ways, isolation holds")

	second, err := tb.NM.Plan(intent)
	if err != nil {
		return err
	}
	if !second.Empty() {
		return fmt.Errorf("re-plan not empty after apply:\n%s", second.Render())
	}
	fmt.Printf("re-plan: no changes (%d components in place) — apply is idempotent\n", second.InPlace)

	if cmd != "destroy" {
		return nil
	}
	// Teardown is a withdrawal: the next pass deletes every component no
	// registered intent wants.
	if err := tb.NM.Withdraw(intent.Name); err != nil {
		return err
	}
	if dryRun {
		down, err := tb.NM.PlanStore()
		if err != nil {
			return err
		}
		fmt.Print(down.Render())
		fmt.Println("dry run: teardown not executed")
		return nil
	}
	down, err := tb.NM.Reconcile()
	if err != nil {
		return err
	}
	fmt.Printf("destroyed: %d delete batches executed\n", len(down.Deletes))
	if err := tb.VerifyConnectivity(4343); err == nil {
		return fmt.Errorf("path still carries traffic after destroy")
	}
	fmt.Println("path gone: probes no longer delivered")
	again, err := tb.NM.Plan(intent)
	if err != nil {
		return err
	}
	fmt.Printf("re-plan after destroy: %d components to create\n", countItems(again.Creates))
	return nil
}

func countItems(scripts []nm.DeviceScript) int {
	n := 0
	for _, ds := range scripts {
		n += len(ds.Items)
	}
	return n
}
