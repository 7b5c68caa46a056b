package main

import (
	"flag"
	"fmt"
	"net"
	"time"

	"conman/internal/experiments"
	"conman/internal/nm"
	"conman/internal/obs"
	"conman/internal/topo"
)

// chaosWiring builds the fabric for `conman chaos`. n is the family's
// natural size knob (fattree: pod arity, ring/waxman: device count,
// torus: side length); 0 picks a small default.
func chaosWiring(family string, n int, seed int64) (*topo.Wiring, error) {
	if n == 0 {
		n = map[string]int{"fattree": 4, "ring": 16, "torus": 4, "waxman": 32}[family]
	}
	switch family {
	case "fattree":
		return topo.FatTree(n)
	case "ring":
		return topo.Ring(n)
	case "torus":
		return topo.Torus(n, n)
	case "waxman":
		return topo.Waxman(n, 0.7, 0.25, seed)
	default:
		return nil, fmt.Errorf("unknown -topo %q (fattree, ring, torus, waxman)", family)
	}
}

// runChaos is the chaos harness as an operator command: one seeded
// multi-failure episode against a daemon-managed generated fabric,
// exit 0 only if every intent re-converged autonomously and delivers.
func runChaos(_ string, args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	family := fs.String("topo", "fattree", "fabric family: fattree, ring, torus or waxman")
	size := fs.Int("n", 0, "fabric size (fattree: pod arity, ring/waxman: devices, torus: side; 0 = family default)")
	pairsN := fs.Int("pairs", 2, "customer pairs (one VLAN intent each) riding the fabric")
	seed := fs.Int64("seed", 1, "seed for the fault picker (and the waxman graph)")
	wires := fs.Int("wires", 2, "wires to cut concurrently")
	devices := fs.Int("devices", 0, "devices to kill concurrently")
	pipes := fs.Int("pipes", 0, "applied tunnel pipes to delete concurrently")
	timeout := fs.Duration("timeout", 30*time.Second, "re-convergence deadline")
	addr := fs.String("addr", "", "serve /status and /metrics here and stay up after the episode (for doctor)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := chaosWiring(*family, *size, *seed)
	if err != nil {
		return err
	}
	tb, pairs, err := experiments.BuildTopoVLAN(w, *pairsN)
	if err != nil {
		return err
	}
	defer tb.Close()
	for _, p := range pairs {
		if err := tb.NM.Submit(p.Intent("VLAN tunnel")); err != nil {
			return err
		}
	}
	d, stop := tb.StartDaemon(nm.DaemonConfig{})
	defer stop()

	episode := func() error {
		fmt.Printf("conman chaos: %s %s — %d devices, %d wires, %d intents\n",
			w.Family, w.Param, len(w.Devices), len(w.Wires), len(pairs))
		if err := d.WaitConverged(0, *timeout); err != nil {
			return fmt.Errorf("initial convergence: %w", err)
		}
		for i, p := range pairs {
			if err := tb.VerifyPair(p, uint32(90000+100*i)); err != nil {
				return fmt.Errorf("before chaos: %w", err)
			}
		}
		fmt.Printf("conman chaos: converged, delivery verified on %d pairs\n", len(pairs))

		protect, err := w.CrossCorePairs(*pairsN)
		if err != nil {
			return err
		}
		rep, err := tb.RunChaos(d, w, protect, experiments.ChaosSpec{
			Seed: *seed, Wires: *wires, Devices: *devices, Pipes: *pipes, Timeout: *timeout,
		})
		if rep != nil {
			for _, name := range rep.Wires {
				fmt.Printf("conman chaos: cut wire %s\n", name)
			}
			for _, dev := range rep.Devices {
				fmt.Printf("conman chaos: killed device %s\n", dev)
			}
			for _, req := range rep.Pipes {
				fmt.Printf("conman chaos: deleted pipe %s on %s\n", req.ID, req.Module)
			}
		}
		if err != nil {
			return err
		}
		for i, p := range pairs {
			if err := tb.VerifyPair(p, uint32(91000+100*i)); err != nil {
				return fmt.Errorf("after heal: %w", err)
			}
		}
		fmt.Printf("conman chaos: healed %d faults (%d candidates guarded), delivery re-verified on %d pairs\n",
			rep.Faults(), rep.Guarded, len(pairs))
		return nil
	}
	if *addr == "" {
		return episode()
	}
	// The surface is up for the whole episode and stays up afterwards.
	mux := obs.NewMux(func() any { return d.Status() }, d.Metrics())
	return serveUntilSignal(*addr, mux, func(at net.Addr) error {
		fmt.Printf("conman chaos: listening on http://%s (/status /metrics)\n", at)
		if err := episode(); err != nil {
			return err
		}
		fmt.Println("conman chaos: serving until interrupted")
		return nil
	})
}
