package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"conman/internal/core"
	"conman/internal/experiments"
	"conman/internal/nm"
	"conman/internal/obs"
	"conman/internal/topo"
)

// chaos-repair runs independent episodes: a ring fabric with two intents
// under the autonomous daemon; once traffic flows, one wire on an
// intent's path is cut and a prober times how long that intent's traffic
// stays dark, next to how long the daemon takes to report convergence.
// experiments.RunChaos picks victims without regard to paths and cannot
// time delivery, so the fault is driven here through the same public
// calls.

// probeInterval is the prober's pause between probes.
const probeInterval = 500 * time.Microsecond

// episode is what one cut-and-repair measured.
type episode struct {
	err    error
	traced bool
	victim string

	setup, generate, build  float64
	toDelivery, toConverged float64
	darkProbes              int
	passes, events, dropped float64
	busy                    float64
	probeRTT, probeFrames   float64
	spans                   []span
}

// daemonCounts reads the daemon's counters the repair is attributed with.
type daemonCounts struct{ passes, events, dropped, busy float64 }

func readDaemon(d *nm.Daemon) daemonCounts {
	snap := d.Metrics().Snapshot()
	count := func(name string) float64 {
		v, _ := snap[name].(uint64)
		return float64(v)
	}
	var c daemonCounts
	c.passes = count("conman_reconcile_runs_total")
	c.events = count("conman_events_notify_total") + count("conman_events_trigger_total") + count("conman_events_topology_total")
	c.dropped = count("conman_events_dropped_total")
	if h, ok := snap["conman_reconcile_latency_seconds"].(obs.HistogramSnapshot); ok {
		c.busy = h.Sum
	}
	return c
}

// onPathWires lists, sorted, the wires with both ends on the devices an
// intent's configuration occupies, that the fabric survives losing.
func onPathWires(w *topo.Wiring, devices []core.DeviceID, a, b core.DeviceID) []string {
	on := make(map[core.DeviceID]bool, len(devices))
	for _, d := range devices {
		on[d] = true
	}
	var names []string
	for _, wi := range w.Wires {
		if on[wi.A.Device] && on[wi.B.Device] &&
			w.ConnectedWithout(map[string]bool{wi.Name: true}, nil, a, b) {
			names = append(names, wi.Name)
		}
	}
	sort.Strings(names)
	return names
}

func runEpisode(cfg config, index int, traced bool) (ep episode) {
	ep.traced = traced
	rng := rand.New(rand.NewSource(cfg.Seed*100000 + int64(index)))
	var rec *recorder
	if traced {
		rec = newRecorder(false)
	}

	t0 := time.Now()
	w, err := topo.Ring(cfg.Sizes.RingN)
	if err != nil {
		ep.err = err
		return ep
	}
	ep.generate = time.Since(t0).Seconds()
	t := time.Now()
	tb, pairs, err := experiments.BuildTopoVLAN(w, 2)
	if err != nil {
		ep.err = fmt.Errorf("build: %w", err)
		return ep
	}
	defer tb.Close()
	ep.build = time.Since(t).Seconds()
	for _, p := range pairs {
		if err := tb.NM.Submit(p.Intent("VLAN tunnel")); err != nil {
			ep.err = err
			return ep
		}
	}
	d, stop := tb.StartDaemon(nm.DaemonConfig{})
	defer stop()
	if err := d.WaitConverged(0, deliveryTimeout); err != nil {
		ep.err = err
		return ep
	}
	token := uint32(1000)
	for _, p := range pairs {
		token += 2
		if err := tb.VerifyPair(p, token); err != nil {
			ep.err = fmt.Errorf("before the fault: %w", err)
			return ep
		}
	}
	ep.setup = time.Since(t0).Seconds()

	// The victim: a seeded wire on a seeded intent's current path.
	pair := pairs[rng.Intn(len(pairs))]
	var devices []core.DeviceID
	for _, ih := range d.Status().Intents {
		if ih.Name == pair.Intent("").Name {
			devices = ih.Devices
		}
	}
	ends, err := w.CrossCorePairs(len(pairs))
	if err != nil {
		ep.err = err
		return ep
	}
	end := ends[pair.Index-1]
	cands := onPathWires(w, devices, end.A, end.B)
	if len(cands) == 0 {
		ep.err = fmt.Errorf("intent %s has no cuttable wire on its path", pair.Intent("").Name)
		return ep
	}
	ep.victim = cands[rng.Intn(len(cands))]

	if traced {
		before := txFrames(tb.Net)
		t := time.Now()
		token += 2
		if err := tb.VerifyPair(pair, token); err != nil {
			ep.err = err
			return ep
		}
		ep.probeRTT = time.Since(t).Seconds()
		ep.probeFrames = float64(txFrames(tb.Net) - before)
	}

	// Cut, then probe from that instant until traffic is back.
	base := readDaemon(d)
	gen := d.ConvergeGen()
	root := -1
	if rec != nil {
		root = rec.beginRoot("episode", fmt.Sprintf("episode-%d", index))
	}
	cut := time.Now()
	if err := tb.Net.SetMediumUp(ep.victim, false); err != nil {
		ep.err = err
		return ep
	}
	type probed struct {
		toDelivery float64
		dark       int
		err        error
	}
	done := make(chan probed, 1) // the prober's one result
	go func() {
		var p probed
		tok := token
		for {
			tok += 2
			var err error
			rec.within("probe.verify", "prober", func() { err = tb.VerifyPair(pair, tok) })
			if err == nil && p.dark > 0 {
				p.toDelivery = time.Since(cut).Seconds()
				break
			}
			if err != nil {
				p.dark++
			}
			if since := time.Since(cut); since > deliveryTimeout || (p.dark == 0 && since > time.Second) {
				p.err = fmt.Errorf("no repaired delivery after %v (dark probes: %d, last: %v)", since, p.dark, err)
				break
			}
			time.Sleep(probeInterval)
		}
		done <- p
	}()
	err = d.WaitConverged(gen, deliveryTimeout)
	ep.toConverged = time.Since(cut).Seconds()
	p := <-done
	if rec != nil {
		rec.endRoot(root)
		ep.spans = rec.take()
	}
	if err != nil {
		ep.err = err
		return ep
	}
	if p.err != nil {
		ep.err = p.err
		return ep
	}
	ep.toDelivery, ep.darkProbes = p.toDelivery, p.dark
	if st := d.Status(); !st.Healthy() {
		ep.err = fmt.Errorf("daemon unhealthy after repair: converged=%v dirty=%v last error %q", st.Converged, st.Dirty, st.LastError)
		return ep
	}
	after := readDaemon(d)
	ep.passes, ep.events = after.passes-base.passes, after.events-base.events
	ep.dropped, ep.busy = after.dropped-base.dropped, after.busy-base.busy

	// Both intents must deliver on the repaired fabric.
	tok := token + 1_000_000
	for _, q := range pairs {
		tok += 2
		if err := tb.VerifyPair(q, tok); err != nil {
			ep.err = fmt.Errorf("after the repair: %w", err)
			return ep
		}
	}
	return ep
}

func runChaosRepair(cfg config) *result {
	res := newResult("chaos-repair", cfg.Trace)
	var eps []episode
	start := time.Now()
	for i := 0; i < cfg.Sizes.MinEpisodes || time.Since(start).Seconds() < cfg.Seconds; i++ {
		ep := runEpisode(cfg, i, cfg.Trace && i%2 == 1)
		res.Attempted++
		if ep.err != nil {
			res.fail("episode %d: %v", i, ep.err)
			continue
		}
		eps = append(eps, ep)
		res.Inputs = append(res.Inputs, fmt.Sprintf("episode %d cuts %s", i, ep.victim))
	}
	if len(eps) == 0 {
		return res
	}
	all := func(f func(*episode) float64) []float64 { return pick(eps, f, nil) }
	toDelivery := all(func(e *episode) float64 { return e.toDelivery })
	toConverged := all(func(e *episode) float64 { return e.toConverged })

	if !cfg.Trace {
		setups := all(func(e *episode) float64 { return e.setup })
		res.set("setup_s", median(setups), len(setups))
		res.set("op_p50_s", median(toDelivery), len(toDelivery))
		res.set("op2_p50_s", median(toConverged), len(toConverged))
		res.set("ops_per_s", ratio(float64(len(toDelivery)), sum(toDelivery)), len(toDelivery))
		return res
	}

	wrapped := func(e *episode) bool { return e.traced }
	bare := func(e *episode) bool { return !e.traced }
	setAll := func(name string, f func(*episode) float64) {
		res.set(name, median(all(f)), len(eps))
	}
	res.set("trace.overhead_ratio",
		ratio(median(pick(eps, func(e *episode) float64 { return e.toDelivery }, wrapped)),
			median(pick(eps, func(e *episode) float64 { return e.toDelivery }, bare))), len(eps))
	setAll("nm.daemon.passes_per_repair", func(e *episode) float64 { return e.passes })
	setAll("nm.daemon.reconcile_busy_s", func(e *episode) float64 { return e.busy })
	setAll("nm.daemon.idle_share", func(e *episode) float64 { return 1 - ratio(e.busy, e.toConverged) })
	setAll("nm.daemon.events_per_repair", func(e *episode) float64 { return e.events })
	res.set("nm.daemon.events_dropped", sum(all(func(e *episode) float64 { return e.dropped })), len(eps))
	setAll("nm.daemon.converged_minus_delivery_s", func(e *episode) float64 { return e.toConverged - e.toDelivery })
	res.set("nm.daemon.fault_to_delivery_p95_s", tail(toDelivery, 0.95), len(toDelivery))
	setAll("nm.daemon.dark_probes_per_repair", func(e *episode) float64 { return float64(e.darkProbes) })
	setAll("topo.generate_s", func(e *episode) float64 { return e.generate })
	setAll("experiments.build_s", func(e *episode) float64 { return e.build })
	rtt := pick(eps, func(e *episode) float64 { return e.probeRTT }, wrapped)
	res.set("netsim.probe_rtt_p50_s", median(rtt), len(rtt))
	res.set("netsim.frames_per_probe", median(pick(eps, func(e *episode) float64 { return e.probeFrames }, wrapped)), len(rtt))
	packetMicro(res)

	var last *episode
	for i := range eps {
		if eps[i].traced {
			last = &eps[i]
		}
	}
	if last == nil {
		res.fail("the run was too short for a traced episode")
		return res
	}
	finishTrace(res, cfg, last.spans)
	return res
}
