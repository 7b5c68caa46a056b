package experiments

// Multi-failure chaos harness: inject k concurrent faults — wire cuts,
// device deaths, pipe deletions — into a daemon-managed testbed built
// from a generated topology, then assert that every registered intent
// re-converges autonomously (WaitConverged, zero manual Reconcile
// calls). Faults are chosen by a seeded RNG under a minimum-cut guard:
// a candidate kill is admitted only if every intent's endpoint pair
// stays connected in the surviving fabric, so the intents remain
// satisfiable and "the daemon did not converge" can only mean a daemon
// bug, not an impossible goal. This is the harness that can falsify
// the daemon's level-triggered claim (lost events cost a pass, never
// correctness) under overlapping failures — one cut at a time never
// could.

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"conman/internal/core"
	"conman/internal/nm"
	"conman/internal/topo"
)

// ChaosSpec is one chaos episode: how many of each fault to inject,
// chosen deterministically from Seed.
type ChaosSpec struct {
	// Seed drives every random choice of the episode.
	Seed int64
	// Wires, Devices and Pipes are the kill budgets per fault class.
	// Wires and devices are picked from the fabric under the min-cut
	// guard; pipes are picked from the currently applied configuration
	// of the registered intents.
	Wires   int
	Devices int
	Pipes   int
	// Timeout bounds the wait for re-convergence (default 30s).
	Timeout time.Duration
}

// ChaosReport records what an episode actually killed.
type ChaosReport struct {
	Wires   []string
	Devices []core.DeviceID
	Pipes   []core.DeleteRequest
	// Guarded counts candidates the minimum-cut guard rejected.
	Guarded int
}

// Faults returns the total number of injected faults.
func (r *ChaosReport) Faults() int {
	return len(r.Wires) + len(r.Devices) + len(r.Pipes)
}

// pickChaosKills selects the episode's wire and device victims: a
// seeded shuffle per fault class, each candidate admitted only if all
// protected endpoint pairs stay connected after it (on top of every
// kill already admitted). Intent endpoint devices are never killed.
func pickChaosKills(w *topo.Wiring, protect []topo.Pair, spec ChaosSpec, rng *rand.Rand) (wires []string, devs []core.DeviceID, guarded int, err error) {
	deadWires := make(map[string]bool)
	deadDevs := make(map[core.DeviceID]bool)
	endpoints := make(map[core.DeviceID]bool)
	for _, p := range protect {
		endpoints[p.A], endpoints[p.B] = true, true
	}
	allOK := func() bool {
		for _, p := range protect {
			if !w.ConnectedWithout(deadWires, deadDevs, p.A, p.B) {
				return false
			}
		}
		return true
	}

	devCands := make([]core.DeviceID, 0, len(w.Devices))
	for _, d := range w.Devices {
		if !endpoints[d.ID] {
			devCands = append(devCands, d.ID)
		}
	}
	rng.Shuffle(len(devCands), func(i, j int) { devCands[i], devCands[j] = devCands[j], devCands[i] })
	for _, d := range devCands {
		if len(devs) == spec.Devices {
			break
		}
		deadDevs[d] = true
		if allOK() {
			devs = append(devs, d)
		} else {
			delete(deadDevs, d)
			guarded++
		}
	}
	if len(devs) < spec.Devices {
		return nil, nil, guarded, fmt.Errorf("experiments: only %d/%d killable devices on %s %s (guard rejected %d)",
			len(devs), spec.Devices, w.Family, w.Param, guarded)
	}

	wireCands := make([]topo.Wire, len(w.Wires))
	copy(wireCands, w.Wires)
	rng.Shuffle(len(wireCands), func(i, j int) { wireCands[i], wireCands[j] = wireCands[j], wireCands[i] })
	for _, wi := range wireCands {
		if len(wires) == spec.Wires {
			break
		}
		// Wires already severed by a device kill are not separate faults.
		if deadDevs[wi.A.Device] || deadDevs[wi.B.Device] {
			continue
		}
		deadWires[wi.Name] = true
		if allOK() {
			wires = append(wires, wi.Name)
		} else {
			delete(deadWires, wi.Name)
			guarded++
		}
	}
	if len(wires) < spec.Wires {
		return nil, nil, guarded, fmt.Errorf("experiments: only %d/%d killable wires on %s %s (guard rejected %d)",
			len(wires), spec.Wires, w.Family, w.Param, guarded)
	}
	return wires, devs, guarded, nil
}

// pickChaosPipes selects up to n applied tunnel pipes (VLAN/GRE/MPLS
// modules) from the daemon's registered intents, skipping devices
// already marked dead. Deleting one simulates configuration loss — the
// §III-C "pipe getting killed" fault — which surfaces to the daemon as
// a notify, not a topology event.
func (tb *Testbed) pickChaosPipes(d *nm.Daemon, n int, dead map[core.DeviceID]bool, rng *rand.Rand) ([]core.DeleteRequest, error) {
	if n == 0 {
		return nil, nil
	}
	seen := make(map[core.DeviceID]bool)
	var cands []core.DeleteRequest
	for _, ih := range d.Status().Intents {
		for _, dev := range ih.Devices {
			if seen[dev] || dead[dev] {
				continue
			}
			seen[dev] = true
			states, err := tb.NM.ShowActual(dev)
			if err != nil {
				return nil, err
			}
			for _, ms := range states {
				switch ms.Ref.Name {
				case core.NameVLAN, core.NameGRE, core.NameMPLS:
				default:
					continue
				}
				for _, p := range ms.Pipes {
					cands = append(cands, core.DeleteRequest{
						Kind:   core.ComponentPipe,
						Module: ms.Ref,
						ID:     string(p.ID),
					})
				}
			}
		}
	}
	if len(cands) < n {
		return nil, fmt.Errorf("experiments: only %d applied tunnel pipes available, need %d", len(cands), n)
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	return cands[:n], nil
}

// RunChaos executes one chaos episode against a running daemon: pick
// victims (seeded, min-cut-guarded), inject every fault concurrently,
// and wait for the daemon to reconverge on its own. It returns an
// error if convergence times out, the daemon reports unhealthy state,
// or any intent still rides a killed device afterwards. protect lists
// the intent endpoint pairs (fabric edge devices) the guard must keep
// connected.
func (tb *Testbed) RunChaos(d *nm.Daemon, w *topo.Wiring, protect []topo.Pair, spec ChaosSpec) (*ChaosReport, error) {
	timeout := spec.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	wires, devs, guarded, err := pickChaosKills(w, protect, spec, rng)
	if err != nil {
		return nil, err
	}
	dead := make(map[core.DeviceID]bool, len(devs))
	for _, dv := range devs {
		dead[dv] = true
	}
	pipes, err := tb.pickChaosPipes(d, spec.Pipes, dead, rng)
	if err != nil {
		return nil, err
	}
	report := &ChaosReport{Wires: wires, Devices: devs, Pipes: pipes, Guarded: guarded}

	gen := d.ConvergeGen()
	var wg sync.WaitGroup
	errs := make(chan error, report.Faults())
	for _, name := range wires {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			errs <- tb.Net.SetMediumUp(name, false)
		}(name)
	}
	for _, dv := range devs {
		wg.Add(1)
		go func(dv core.DeviceID) {
			defer wg.Done()
			errs <- tb.KillDevice(dv)
		}(dv)
	}
	for _, req := range pipes {
		wg.Add(1)
		go func(req core.DeleteRequest) {
			defer wg.Done()
			errs <- tb.Devices[req.Module.Device].MA.Delete(req)
		}(req)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		if e != nil {
			return report, fmt.Errorf("experiments: fault injection: %w", e)
		}
	}

	if err := d.WaitConverged(gen, timeout); err != nil {
		return report, fmt.Errorf("experiments: daemon did not reconverge after %d faults: %w", report.Faults(), err)
	}
	st := d.Status()
	if !st.Healthy() {
		return report, fmt.Errorf("experiments: daemon unhealthy after chaos: converged=%v lastErr=%q dirty=%v",
			st.Converged, st.LastError, st.Dirty)
	}
	for _, ih := range st.Intents {
		for _, dev := range ih.Devices {
			if dead[dev] {
				return report, fmt.Errorf("experiments: intent %s still rides killed device %s", ih.Name, dev)
			}
		}
	}
	return report, nil
}
