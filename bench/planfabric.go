package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"conman/internal/experiments"
	"conman/internal/msg"
	"conman/internal/nm"
	"conman/internal/topo"
)

// plan-fabric plans and applies nothing: NM.Plan with no preferred
// flavour on seeded Waxman graphs (the finder's search) and with one on a
// torus (graph build and compile at scale). The management channel only
// carries showActual, so channel, module and datastore changes predict no
// change here.

// fabric is one built topology and the intent planned on it.
type fabric struct {
	name   string
	tb     *experiments.Testbed
	intent nm.Intent
}

// planSetup is everything plan-fabric builds before its first timed Plan.
type planSetup struct {
	waxman   []fabric
	torus    fabric
	generate float64 // topology generation share of the set-up
	build    float64 // testbed build + discovery share
	inputs   []string
}

func (ps *planSetup) close() {
	for _, f := range ps.waxman {
		f.tb.Close()
	}
	if ps.torus.tb != nil {
		ps.torus.tb.Close()
	}
}

func buildFabric(name string, w *topo.Wiring, prefer bool) (fabric, error) {
	tb, intents, err := experiments.BuildTopoVLANLite(w, 1)
	if err != nil {
		return fabric{}, fmt.Errorf("build %s: %w", name, err)
	}
	in := intents[0]
	if !prefer {
		in.Prefer = ""
	}
	// On the torus one untimed Plan fills the NM's graph cache, as on a
	// long-lived NM; nm.graph_build_s times the cold build on its own. A
	// Waxman graph builds in about a millisecond, so its first timed Plan
	// pays that and the median drops it.
	if prefer {
		if _, err := tb.NM.Plan(in); err != nil {
			tb.Close()
			return fabric{}, fmt.Errorf("warm-up plan on %s: %w", name, err)
		}
	}
	return fabric{name: name, tb: tb, intent: in}, nil
}

func setupPlanFabric(cfg config) (*planSetup, error) {
	ps := &planSetup{}
	sz := cfg.Sizes
	for i := 0; i < sz.WaxmanGraphs; i++ {
		seed := cfg.Seed + int64(i)
		t := time.Now()
		w, err := topo.Waxman(sz.WaxmanN, 0.7, 0.25, seed)
		if err != nil {
			ps.close()
			return nil, err
		}
		ps.generate += time.Since(t).Seconds()
		ps.inputs = append(ps.inputs, fmt.Sprintf("waxman-%d seed %d %x", sz.WaxmanN, seed, sha256.Sum256([]byte(w.Canonical()))))
		t = time.Now()
		f, err := buildFabric(fmt.Sprintf("waxman-%d/%d", sz.WaxmanN, seed), w, false)
		if err != nil {
			ps.close()
			return nil, err
		}
		ps.build += time.Since(t).Seconds()
		ps.waxman = append(ps.waxman, f)
	}
	t := time.Now()
	w, err := topo.Torus(sz.TorusSide, sz.TorusSide)
	if err != nil {
		ps.close()
		return nil, err
	}
	ps.generate += time.Since(t).Seconds()
	t = time.Now()
	ps.torus, err = buildFabric(fmt.Sprintf("torus-%d", sz.TorusSide*sz.TorusSide), w, true)
	if err != nil {
		ps.close()
		return nil, err
	}
	ps.build += time.Since(t).Seconds()
	return ps, nil
}

// checkFinderEquivalence compares the best-first finder with the
// exhaustive enumerator on one small seeded Waxman graph: both must
// choose the same path.
func checkFinderEquivalence(cfg config) error {
	w, err := topo.Waxman(cfg.Sizes.EquivN, 0.7, 0.25, cfg.Seed)
	if err != nil {
		return err
	}
	tb, intents, err := experiments.BuildTopoVLANLite(w, 1)
	if err != nil {
		return err
	}
	defer tb.Close()
	g, err := nm.BuildGraph(tb.NM)
	if err != nil {
		return err
	}
	spec := findSpec(intents[0])
	best, _, err := g.FindBest(spec)
	if err != nil || best == nil {
		return fmt.Errorf("best-first found no path on waxman-%d (%v)", cfg.Sizes.EquivN, err)
	}
	spec.Exhaustive = true
	spec.MaxPaths = 200000 // uncapped: selection over a truncated enumeration is unreliable
	want, _, err := g.FindBest(spec)
	if err != nil || want == nil {
		return fmt.Errorf("exhaustive search found no path on waxman-%d (%v)", cfg.Sizes.EquivN, err)
	}
	if best.Modules() != want.Modules() {
		return fmt.Errorf("best-first chose %q, exhaustive search %q", best.Modules(), want.Modules())
	}
	return nil
}

func runPlanFabric(cfg config) *result {
	res := newResult("plan-fabric", cfg.Trace)
	var setups []float64
	var ps *planSetup
	for i := 0; i < cfg.Sizes.Setups; i++ {
		if ps != nil {
			ps.close()
		}
		t := time.Now()
		var err error
		if ps, err = setupPlanFabric(cfg); err != nil {
			res.Attempted++
			res.fail("set-up: %v", err)
			return res
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer ps.close()
	res.Inputs = ps.inputs
	res.Attempted++
	if err := checkFinderEquivalence(cfg); err != nil {
		res.fail("finder equivalence: %v", err)
	}

	var rec *recorder
	if cfg.Trace {
		rec = newRecorder(false)
	}
	// timedPlan runs one Plan as an operation of its own; traced says
	// whether this one records spans.
	timedPlan := func(f fabric, traced bool) (float64, bool) {
		res.Attempted++
		r := rec
		if !traced {
			r = nil
		}
		root := -1
		if r != nil {
			root = r.beginRoot("op", f.name)
		}
		var plan *nm.Plan
		var err error
		t := time.Now()
		r.within("nm.plan", msg.NMName, func() { plan, err = f.tb.NM.Plan(f.intent) })
		d := time.Since(t).Seconds()
		if r != nil {
			r.endRoot(root)
		}
		switch {
		case err != nil:
			res.fail("plan on %s: %v", f.name, err)
		case plan.Empty():
			res.fail("plan on %s is empty", f.name)
		default:
			return d, true
		}
		return 0, false
	}

	perGraph := make([][]float64, len(ps.waxman))
	var torus, bareAll, tracedAll []float64
	start := time.Now()
	for round := 0; round < cfg.Sizes.MinReps || time.Since(start).Seconds() < cfg.Seconds; round++ {
		traced := cfg.Trace && round%2 == 1
		for i, f := range ps.waxman {
			if d, ok := timedPlan(f, traced); ok {
				perGraph[i] = append(perGraph[i], d)
				if traced {
					tracedAll = append(tracedAll, d)
				} else {
					bareAll = append(bareAll, d)
				}
			}
		}
		for i := 0; i < 2; i++ {
			if d, ok := timedPlan(ps.torus, traced); ok {
				torus = append(torus, d)
			}
		}
	}
	// plan_search_s: the sum over the graphs of each graph's median.
	var search float64
	var all []float64
	for _, xs := range perGraph {
		search += median(xs)
		all = append(all, xs...)
	}

	if !cfg.Trace {
		res.set("setup_s", median(setups), len(setups))
		res.set("op_p50_s", search, len(all))
		res.set("op2_p50_s", median(torus), len(torus))
		res.set("ops_per_s", ratio(float64(len(all)), sum(all)), len(all))
		return res
	}

	res.set("trace.overhead_ratio", ratio(median(tracedAll), median(bareAll)), len(tracedAll)+len(bareAll))
	res.set("topo.generate_s", ps.generate, 1)
	res.set("experiments.build_s", ps.build, 1)
	t := time.Now()
	if err := ps.torus.tb.NM.DiscoverAll(); err != nil {
		res.fail("discover: %v", err)
	}
	res.set("nm.discover_s", time.Since(t).Seconds(), 1)

	// The finder's numbers are summed over the Waxman graphs (what
	// plan_search_s is made of); graph build and compile come from the
	// torus (what plan_scale_s is made of).
	var find float64
	var expanded int
	for _, f := range ps.waxman {
		fc, err := timeFindCompile(f.tb.NM, f.intent)
		if err != nil {
			res.fail("%s: %v", f.name, err)
			continue
		}
		find += fc.find
		expanded += fc.expanded
	}
	res.set("nm.find_s", find, len(ps.waxman))
	res.set("nm.find_states_expanded", float64(expanded), len(ps.waxman))
	res.Exact["nm.find_states_expanded"] = float64(expanded)
	fc, err := timeFindCompile(ps.torus.tb.NM, ps.torus.intent)
	if err != nil {
		res.fail("%s: %v", ps.torus.name, err)
	}
	res.set("nm.graph_build_s", fc.graph, 1)
	res.set("nm.compile_s", fc.compile, 1)
	res.set("nm.plan_s", median(torus), len(torus))
	res.set("nm.plan_observe_diff_s", median(torus)-fc.find-fc.compile, len(torus))

	showActual, err := timeShowActual(ps.torus.tb.NM, cfg.Sizes.ShowActualSample)
	if err != nil {
		res.fail("showActual: %v", err)
	}
	res.set("device.show_actual_p50_s", median(showActual), len(showActual))
	finishTrace(res, cfg, rec.take())
	return res
}
