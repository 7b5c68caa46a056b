package main

import (
	"fmt"
	"strings"
	"time"

	"conman/internal/channel"
	"conman/internal/experiments"
	"conman/internal/msg"
	"conman/internal/netsim"
	"conman/internal/nm"
)

// The three chain workloads configure the same job — the GRE+IGP tunnel
// across a linear chain of routers — over three management channels, and
// time the operator's number: goal submitted → probe traffic delivered
// both ways.

// deliveryTimeout is how long an operation may take to deliver before it
// counts as failed.
const deliveryTimeout = 30 * time.Second

// chainTransport is one rep's management channel.
type chainTransport struct {
	factory     experiments.EndpointFactory
	synchronous bool                             // the in-process hub: delivery inside Send
	stats       func() channel.TransportSnapshot // nil on the hub
	faulty      *channel.FaultyNetwork           // nil without fault injection
}

// injectedDrops counts the datagrams the fault injector dropped.
func (tr chainTransport) injectedDrops() int {
	n := 0
	for _, verdicts := range tr.faulty.Trace() {
		n += strings.Count(verdicts, "D")
	}
	return n
}

func newChainTransport(workload string, faultSeed int64) chainTransport {
	cfg := channel.Config{FlushAge: time.Millisecond}
	switch workload {
	case "udp-clean":
		un := channel.NewUDPNetworkConfig(cfg)
		return chainTransport{
			factory: func(name string) (channel.Endpoint, error) { return un.Endpoint(name) },
			stats:   un.Stats,
		}
	case "udp-lossy":
		fn := channel.NewFaultyNetwork(cfg, channel.FaultConfig{
			Seed: faultSeed, Loss: 0.05, Reorder: 0.02, Jitter: time.Millisecond,
		})
		return chainTransport{
			factory: func(name string) (channel.Endpoint, error) { return fn.Endpoint(name) },
			stats:   fn.Stats,
			faulty:  fn,
		}
	default: // hub-coldstart: in-process, synchronous, zero injected delay
		hub := channel.NewHub()
		return chainTransport{
			factory:     func(name string) (channel.Endpoint, error) { return hub.Endpoint(name), nil },
			synchronous: true,
		}
	}
}

// chainRep is what one configuration of the chain measured.
type chainRep struct {
	traced bool
	err    error

	setup, plan, apply, delivery, quiesce float64
	replans                               []float64
	counters                              nm.Counters
	retries                               uint64
	transport                             channel.TransportSnapshot
	drops                                 int
	verdict                               string
	kernelOps                             int

	// traced reps only
	discover, graphBuild, find, compile float64
	expanded                            int
	showActual                          []float64
	probeRTT, probeFrames               float64
	spans                               []span
}

// runChainRep builds a fresh chain, configures the intent, waits for
// delivery and quiescence, checks the outputs and tears the testbed
// down.
func runChainRep(workload string, cfg config, rep int, traced bool) (out chainRep) {
	out.traced = traced
	n := cfg.Sizes.ChainN
	sc := experiments.GREIGPScenario()

	var rec *recorder
	if traced {
		rec = newRecorder(workload == "hub-coldstart") // one goroutine there: spans nest
	}
	tb, tr, setup, err := setupChain(workload, cfg, rep, rec)
	if err != nil {
		out.err = err
		return out
	}
	defer tb.Close()
	out.setup = setup
	intent := sc.Intent(n)
	opRoot := -1

	if traced {
		// Layer timings taken beside the operation, not inside it: the
		// finder and compiler called directly, and one more discovery.
		t := time.Now()
		if err := tb.NM.DiscoverAll(); err != nil {
			out.err = fmt.Errorf("discover: %w", err)
			return out
		}
		out.discover = time.Since(t).Seconds()
		fc, err := timeFindCompile(tb.NM, intent)
		if err != nil {
			out.err = err
			return out
		}
		out.graphBuild, out.find, out.compile, out.expanded = fc.graph, fc.find, fc.compile, fc.expanded
		rec.take() // drop the set-up traffic
		opRoot = rec.beginRoot("op", fmt.Sprintf("%s-rep%d", workload, rep))
	}

	// The timed operation: first Plan call → first probe delivered both
	// ways without leaking.
	t1 := time.Now()
	var plan *nm.Plan
	rec.within("nm.plan", msg.NMName, func() { plan, err = tb.NM.Plan(intent) })
	if err != nil {
		out.err = fmt.Errorf("plan: %w", err)
		return out
	}
	if plan.Empty() {
		out.err = fmt.Errorf("plan on an unconfigured chain is empty")
		return out
	}
	out.plan = time.Since(t1).Seconds()
	tb.NM.ResetCounters() // counters hold configuration traffic only (Table VI)
	rec.within("nm.apply", msg.NMName, func() { err = tb.NM.Apply(plan) })
	if err != nil {
		out.err = fmt.Errorf("apply: %w", err)
		return out
	}
	out.apply = time.Since(t1).Seconds() - out.plan
	token := uint32(10000)
	for {
		token += 2 // VerifyPair also uses token+1 for its leak probe
		rec.within("probe.verify", "prober", func() { err = tb.VerifyConnectivity(token) })
		if err == nil {
			break
		}
		if time.Since(t1) > deliveryTimeout {
			out.err = fmt.Errorf("no delivery within %v: %w", deliveryTimeout, err)
			return out
		}
		time.Sleep(5 * time.Millisecond)
	}
	out.delivery = time.Since(t1).Seconds()
	if traced {
		rec.endRoot(opRoot)
	}

	// Quiescence (the LSA flood tail) is awaited after the timed span and
	// before any counter is read.
	out.quiesce = waitQuiet(tb.NM, tr.synchronous).Seconds()
	out.counters = tb.NM.Counters()
	out.retries = tb.NM.CallRetries()
	if tr.stats != nil {
		out.transport = tr.stats()
	}
	if tr.faulty != nil {
		out.drops = tr.injectedDrops()
		out.verdict = tr.faulty.TraceString()
	}
	for _, dev := range tb.Devices {
		out.kernelOps += len(dev.MA.Kernel().ExecLog())
	}
	if traced {
		out.spans = rec.take()
	}

	// Output checks: planning again on the converged chain must find
	// nothing to do (and is timed: the operator's dry run against a live
	// network), and traffic must still flow.
	for i := 0; i < 3; i++ {
		t := time.Now()
		again, err := tb.NM.Plan(intent)
		if err != nil {
			out.err = fmt.Errorf("re-plan: %w", err)
			return out
		}
		out.replans = append(out.replans, time.Since(t).Seconds())
		if !again.Empty() {
			out.err = fmt.Errorf("re-plan on the converged chain is not empty:\n%s", again.Render())
			return out
		}
	}
	if traced {
		if out.showActual, err = timeShowActual(tb.NM, cfg.Sizes.ShowActualSample); err != nil {
			out.err = fmt.Errorf("showActual: %w", err)
			return out
		}
		before := txFrames(tb.Net)
		t := time.Now()
		err = tb.VerifyConnectivity(token + 2)
		out.probeRTT = time.Since(t).Seconds()
		out.probeFrames = float64(txFrames(tb.Net) - before)
	} else {
		err = tb.VerifyConnectivity(token + 2)
	}
	if err != nil {
		out.err = fmt.Errorf("converged chain stopped delivering: %w", err)
	}
	return out
}

// setupChain is a chain workload's set-up: the management channel, the
// chain of n routers with their customer sites, device start and
// discovery. With a recorder every endpoint is wrapped.
func setupChain(workload string, cfg config, rep int, rec *recorder) (*experiments.Testbed, chainTransport, float64, error) {
	t0 := time.Now()
	tr := newChainTransport(workload, cfg.Seed*1000+int64(rep))
	factory := tr.factory
	if rec != nil {
		factory = func(name string) (channel.Endpoint, error) {
			ep, err := tr.factory(name)
			if err != nil {
				return nil, err
			}
			return &tracedEndpoint{Endpoint: ep, rec: rec}, nil
		}
	}
	tb, err := experiments.GREIGPScenario().BuildOver(cfg.Sizes.ChainN, factory)
	if err != nil {
		return nil, tr, 0, fmt.Errorf("build: %w", err)
	}
	tb.NM.RetryInterval = 100 * time.Millisecond
	tb.NM.CallTimeout = deliveryTimeout
	tb.NM.Sequential = tr.synchronous
	return tb, tr, time.Since(t0).Seconds(), nil
}

// waitQuiet waits until the NM's message counters stop moving and
// returns how long they kept moving. The synchronous hub is quiet as
// soon as Apply returns.
func waitQuiet(n *nm.NM, synchronous bool) time.Duration {
	if synchronous {
		return 0
	}
	start := time.Now()
	lastChange := start
	last := n.Counters()
	for stable := 0; stable < 10 && time.Since(start) < deliveryTimeout; {
		time.Sleep(10 * time.Millisecond)
		if cur := n.Counters(); cur == last {
			stable++
		} else {
			stable, last, lastChange = 0, cur, time.Now()
		}
	}
	return lastChange.Sub(start)
}

// txFrames sums the frames sent on every port of the simulated network.
func txFrames(net *netsim.Network) uint64 {
	var total uint64
	for _, name := range net.Media() {
		m, ok := net.Medium(name)
		if !ok {
			continue
		}
		for _, p := range m.Ports() {
			total += net.TxCount(p)
		}
	}
	return total
}

// findCompile is the finder/compiler breakdown of one intent.
type findCompile struct {
	graph, find, compile float64
	expanded             int
}

// timeFindCompile calls the graph builder, finder and compiler directly,
// the way NM.Plan composes them.
func timeFindCompile(n *nm.NM, intent nm.Intent) (findCompile, error) {
	var fc findCompile
	t := time.Now()
	g, err := nm.BuildGraph(n)
	if err != nil {
		return fc, fmt.Errorf("build graph: %w", err)
	}
	fc.graph = time.Since(t).Seconds()
	t = time.Now()
	path, stats, err := g.FindBest(findSpec(intent))
	if err != nil || path == nil {
		return fc, fmt.Errorf("find %q: no path (%v)", intent.Name, err)
	}
	fc.find, fc.expanded = time.Since(t).Seconds(), stats.Expanded
	t = time.Now()
	if _, err := n.Compile(path, intent.Goal); err != nil {
		return fc, fmt.Errorf("compile %q: %w", intent.Name, err)
	}
	fc.compile = time.Since(t).Seconds()
	return fc, nil
}

func findSpec(intent nm.Intent) nm.FindSpec {
	return nm.FindSpec{
		From: intent.Goal.From, To: intent.Goal.To, TrafficDomain: intent.Goal.TrafficDomain,
		FromPipe: intent.Goal.FromPipe, ToPipe: intent.Goal.ToPipe,
		MaxPaths: intent.MaxPaths, Prefer: intent.Prefer, Exhaustive: intent.Exhaustive,
	}
}

// runChain repeats the configuration for the run's duration. A traced
// run alternates unwrapped and wrapped reps, so the tracing overhead is
// measured inside one process.
func runChain(workload string, cfg config) *result {
	res := newResult(workload, cfg.Trace)
	var reps []chainRep
	start := time.Now()
	for rep := 0; rep < cfg.Sizes.MinReps || time.Since(start).Seconds() < cfg.Seconds; rep++ {
		r := runChainRep(workload, cfg, rep, cfg.Trace && rep%2 == 1)
		res.Attempted++
		if r.err != nil {
			res.fail("rep %d: %v", rep, r.err)
			continue
		}
		reps = append(reps, r)
		if r.verdict != "" {
			res.Inputs = append(res.Inputs, fmt.Sprintf("rep %d verdicts %s", rep, verdictPrefix(r.verdict)))
		}
	}
	if len(reps) == 0 {
		return res
	}
	hub := workload == "hub-coldstart"
	all := func(f func(*chainRep) float64) []float64 { return pick(reps, f, nil) }
	msgs := all(func(r *chainRep) float64 { return float64(r.counters.Sent() + r.counters.Received()) })
	kernelOps := all(func(r *chainRep) float64 { return float64(r.kernelOps) })

	// On the sequential hub nothing is left to arrival order: the Table VI
	// message count and the kernel operations must repeat exactly.
	if hub {
		for i := range reps {
			if msgs[i] != msgs[0] || kernelOps[i] != kernelOps[0] {
				res.fail("hub-coldstart counts differ across reps: nm msgs %v, kernel ops %v", msgs, kernelOps)
				break
			}
		}
		res.Exact["nm.msgs_per_op"] = msgs[0]
		res.Exact["kernel.exec_ops"] = kernelOps[0]
	}

	if !cfg.Trace {
		// Three or four reps are too few set-ups for a steady median, and a
		// set-up is cheap: take more of them, each torn down at once.
		setups := all(func(r *chainRep) float64 { return r.setup })
		for i := len(reps); len(setups) < cfg.Sizes.SetupSamples; i++ {
			tb, _, setup, err := setupChain(workload, cfg, i, nil)
			res.Attempted++
			if err != nil {
				res.fail("set-up %d: %v", i, err)
				break
			}
			tb.Close()
			setups = append(setups, setup)
		}
		delivery := all(func(r *chainRep) float64 { return r.delivery })
		var replans []float64
		for i := range reps {
			replans = append(replans, reps[i].replans...)
		}
		res.set("setup_s", median(setups), len(setups))
		res.set("op_p50_s", median(delivery), len(delivery))
		res.set("op2_p50_s", median(replans), len(replans))
		res.set("ops_per_s", ratio(float64(len(delivery)), sum(delivery)), len(delivery))
		return res
	}

	wrapped := func(r *chainRep) bool { return r.traced }
	bare := func(r *chainRep) bool { return !r.traced }
	setT := func(name string, f func(*chainRep) float64) {
		xs := pick(reps, f, wrapped)
		res.set(name, median(xs), len(xs))
	}
	setAll := func(name string, f func(*chainRep) float64) {
		xs := all(f)
		res.set(name, median(xs), len(xs))
	}
	res.set("trace.overhead_ratio",
		ratio(median(pick(reps, func(r *chainRep) float64 { return r.delivery }, wrapped)),
			median(pick(reps, func(r *chainRep) float64 { return r.delivery }, bare))), len(reps))

	setT("nm.graph_build_s", func(r *chainRep) float64 { return r.graphBuild })
	setT("nm.find_s", func(r *chainRep) float64 { return r.find })
	setT("nm.find_states_expanded", func(r *chainRep) float64 { return float64(r.expanded) })
	setT("nm.compile_s", func(r *chainRep) float64 { return r.compile })
	setAll("nm.plan_s", func(r *chainRep) float64 { return r.plan })
	setT("nm.plan_observe_diff_s", func(r *chainRep) float64 { return r.plan - r.find - r.compile })
	setAll("nm.apply_s", func(r *chainRep) float64 { return r.apply })
	setAll("nm.post_apply_settle_s", func(r *chainRep) float64 { return r.delivery - r.plan - r.apply })
	setAll("nm.quiesce_s", func(r *chainRep) float64 { return r.quiesce })
	res.set("nm.msgs_per_op", median(msgs), len(msgs))
	setAll("nm.cmd_sent", func(r *chainRep) float64 { return float64(r.counters.CmdSent) })
	setAll("nm.relay_out", func(r *chainRep) float64 { return float64(r.counters.RelayOut) })
	setAll("nm.relay_in", func(r *chainRep) float64 { return float64(r.counters.RelayIn) })
	setAll("nm.notify_recv", func(r *chainRep) float64 { return float64(r.counters.NotifyRecv) })
	setAll("nm.call_retries", func(r *chainRep) float64 { return float64(r.retries) })
	res.set("kernel.exec_ops", median(kernelOps), len(kernelOps))

	ts := func(f func(*channel.TransportSnapshot) uint64) func(*chainRep) float64 {
		return func(r *chainRep) float64 { return float64(f(&r.transport)) }
	}
	setAll("channel.datagrams_sent", ts(func(s *channel.TransportSnapshot) uint64 { return s.DatagramsSent }))
	setAll("channel.data_frames", ts(func(s *channel.TransportSnapshot) uint64 { return s.DataFrames }))
	setAll("channel.retransmits", ts(func(s *channel.TransportSnapshot) uint64 { return s.Retransmits }))
	setAll("channel.dup_frames", ts(func(s *channel.TransportSnapshot) uint64 { return s.DupFrames }))
	setAll("channel.ack_only", ts(func(s *channel.TransportSnapshot) uint64 { return s.AckOnly }))
	setAll("channel.abandoned_frames", ts(func(s *channel.TransportSnapshot) uint64 { return s.AbandonedFrames }))
	setAll("channel.backlog_drops", ts(func(s *channel.TransportSnapshot) uint64 { return s.BacklogDrops }))
	setAll("channel.queue_high_water", ts(func(s *channel.TransportSnapshot) uint64 { return s.QueueHighWater }))
	setAll("channel.injected_drops", func(r *chainRep) float64 { return float64(r.drops) })
	setAll("channel.envelopes_per_data_frame", func(r *chainRep) float64 {
		return ratio(float64(r.transport.EnvelopesSent), float64(r.transport.DataFrames))
	})
	setAll("channel.ack_only_share", func(r *chainRep) float64 {
		return ratio(float64(r.transport.AckOnly), float64(r.transport.DatagramsSent))
	})
	setAll("channel.retransmit_share", func(r *chainRep) float64 {
		return ratio(float64(r.transport.Retransmits), float64(r.transport.DataFrames))
	})

	setT("experiments.build_s", func(r *chainRep) float64 { return r.setup })
	setT("nm.discover_s", func(r *chainRep) float64 { return r.discover })
	setT("netsim.probe_rtt_p50_s", func(r *chainRep) float64 { return r.probeRTT })
	setT("netsim.frames_per_probe", func(r *chainRep) float64 { return r.probeFrames })
	var showActual []float64
	var last *chainRep
	for i := range reps {
		if reps[i].traced {
			showActual = append(showActual, reps[i].showActual...)
			last = &reps[i]
		}
	}
	res.set("device.show_actual_p50_s", median(showActual), len(showActual))
	if last == nil {
		res.fail("the run was too short for a traced rep")
		return res
	}

	// Span-derived metrics come from the last traced rep, whose spans are
	// also the ones written out.
	sm := summarizeSpans(last.spans, hub)
	sm.emit(res, cfg.Sizes.ChainN)
	packetMicro(res)
	msgMicro(res, sm.sample)
	if hub {
		if gap := 1 - ratio(sm.selfTotal, last.delivery); gap > 0.05 || gap < -0.05 {
			res.fail("hub-coldstart self times sum to %.4fs, traced submit→delivery is %.4fs", sm.selfTotal, last.delivery)
		}
	}
	finishTrace(res, cfg, last.spans)
	return res
}

// verdictPrefix keeps the first verdicts of every stream: the part of a
// fault transcript the seed alone decides (how many datagrams a stream
// goes on to carry depends on timing).
func verdictPrefix(transcript string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(transcript), "\n") {
		stream, verdicts, _ := strings.Cut(line, " ")
		if len(verdicts) > 8 {
			verdicts = verdicts[:8]
		}
		fmt.Fprintf(&b, "%s=%s;", stream, verdicts)
	}
	return b.String()
}
