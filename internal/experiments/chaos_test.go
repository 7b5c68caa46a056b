package experiments

// Multi-failure convergence tests on generated topologies (ROADMAP
// item 4): the chaos harness kills k wires/devices/pipes concurrently
// on fat-tree, ring and Waxman fabrics and asserts every registered
// intent re-converges through the daemon alone — zero manual Reconcile
// calls — with data-plane delivery re-verified after the heal. The
// plan-level suite exercises generation + compile at n in the
// thousands, where data-plane testbeds would be too heavy but the
// NM's planning path still has to hold up.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"conman/internal/core"
	"conman/internal/nm"
	"conman/internal/topo"
)

// mustPairs re-derives the builder's intent endpoint pairs for the
// min-cut guard (CrossCorePairs is deterministic).
func mustPairs(t *testing.T, w *topo.Wiring, n int) []topo.Pair {
	t.Helper()
	pairs, err := w.CrossCorePairs(n)
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

// startConverged builds the VLAN fabric for w with pairsN customer
// pairs, submits every pair's intent, starts a daemon and waits for
// initial convergence with delivery verified.
func startConverged(t *testing.T, w *topo.Wiring, pairsN int, cfg nm.DaemonConfig) (*Testbed, []SharedPair, *nm.Daemon, func()) {
	t.Helper()
	tb, pairs, err := BuildTopoVLAN(w, pairsN)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if err := tb.NM.Submit(p.Intent("VLAN tunnel")); err != nil {
			t.Fatal(err)
		}
	}
	d, stop := tb.StartDaemon(cfg)
	if err := d.WaitConverged(0, daemonWait); err != nil {
		stop()
		t.Fatalf("initial convergence on %s %s: %v", w.Family, w.Param, err)
	}
	for i, p := range pairs {
		if err := tb.VerifyPair(p, uint32(97000+100*i)); err != nil {
			stop()
			t.Fatalf("pair %d before chaos: %v", p.Index, err)
		}
	}
	return tb, pairs, d, stop
}

// verifyAll re-checks delivery for every pair after a heal.
func verifyAll(t *testing.T, tb *Testbed, pairs []SharedPair, base uint32) {
	t.Helper()
	for i, p := range pairs {
		if err := tb.VerifyPair(p, base+uint32(100*i)); err != nil {
			t.Errorf("pair %d after chaos: %v", p.Index, err)
		}
	}
}

// TestChaosFatTreeKillWires kills k in {1, 2, 4} wires concurrently on
// a fat-tree(k=4) fabric carrying two VLAN intents across pods.
func TestChaosFatTreeKillWires(t *testing.T) {
	for _, kills := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("kills=%d", kills), func(t *testing.T) {
			w, err := topo.FatTree(4)
			if err != nil {
				t.Fatal(err)
			}
			tb, pairs, d, stop := startConverged(t, w, 2, nm.DaemonConfig{})
			defer stop()
			rep, err := tb.RunChaos(d, w, mustPairs(t, w, 2), ChaosSpec{Seed: int64(40 + kills), Wires: kills})
			if err != nil {
				t.Fatalf("chaos (report %+v): %v", rep, err)
			}
			if len(rep.Wires) != kills {
				t.Fatalf("killed %d wires, want %d", len(rep.Wires), kills)
			}
			verifyAll(t, tb, pairs, 97500)
		})
	}
}

// TestChaosRingWiresAndDevice kills two wires and one device at once
// on a 64-switch ring. The ring is only 2-connected, so this is the
// tightest guard workout: most candidates would strand an intent and
// must be rejected.
func TestChaosRingWiresAndDevice(t *testing.T) {
	w, err := topo.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	tb, pairs, d, stop := startConverged(t, w, 2, nm.DaemonConfig{})
	defer stop()
	rep, err := tb.RunChaos(d, w, mustPairs(t, w, 2), ChaosSpec{Seed: 7, Wires: 2, Devices: 1, Timeout: 2 * daemonWait})
	if err != nil {
		t.Fatalf("chaos (report %+v): %v", rep, err)
	}
	if rep.Guarded == 0 {
		t.Error("expected the min-cut guard to reject candidates on a ring")
	}
	verifyAll(t, tb, pairs, 98000)
}

// TestChaosWaxmanSeedSweep runs seed-swept episodes on random Waxman
// graphs: different seeds generate different fabrics AND different
// kill choices, with the kill budget growing across the sweep.
func TestChaosWaxmanSeedSweep(t *testing.T) {
	for i, seed := range []int64{1, 2, 3} {
		kills := 1 << i // 1, 2, 4
		t.Run(fmt.Sprintf("seed=%d kills=%d", seed, kills), func(t *testing.T) {
			w, err := topo.Waxman(64, 0.7, 0.25, seed)
			if err != nil {
				t.Fatal(err)
			}
			tb, pairs, d, stop := startConverged(t, w, 2, nm.DaemonConfig{})
			defer stop()
			rep, err := tb.RunChaos(d, w, mustPairs(t, w, 2), ChaosSpec{Seed: seed, Wires: kills})
			if err != nil {
				t.Fatalf("chaos (report %+v): %v", rep, err)
			}
			verifyAll(t, tb, pairs, 98500)
		})
	}
}

// TestChaosMixedFaultClasses injects wire cuts, a device death and
// tunnel-pipe deletions in the same episode on a fat-tree: topology
// events and notifies overlap, which is exactly the regime where a
// level-triggered loop must still converge.
func TestChaosMixedFaultClasses(t *testing.T) {
	w, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	tb, pairs, d, stop := startConverged(t, w, 2, nm.DaemonConfig{})
	defer stop()
	rep, err := tb.RunChaos(d, w, mustPairs(t, w, 2),
		ChaosSpec{Seed: 11, Wires: 2, Devices: 1, Pipes: 2, Timeout: 2 * daemonWait})
	if err != nil {
		t.Fatalf("chaos (report %+v): %v", rep, err)
	}
	if rep.Faults() != 5 {
		t.Fatalf("injected %d faults, want 5 (%+v)", rep.Faults(), rep)
	}
	verifyAll(t, tb, pairs, 99000)
}

// TestChaosRoutedRingGREIGP runs the routed family end to end: a ring
// of IGP routers with a GRE tunnel intent across it; a wire cut must
// reroute the tunnel the long way around, with the IGP re-flooding and
// transit routes reinstalled — all daemon-driven.
func TestChaosRoutedRingGREIGP(t *testing.T) {
	w, err := topo.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	tb, pairs, err := BuildTopoGREIGP(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if err := tb.NM.Submit(p.Intent("GRE-IP tunnel")); err != nil {
			t.Fatal(err)
		}
	}
	d, stop := tb.StartDaemon(nm.DaemonConfig{})
	defer stop()
	if err := d.WaitConverged(0, daemonWait); err != nil {
		t.Fatalf("initial convergence: %v", err)
	}
	for _, p := range pairs {
		if err := tb.VerifyPair(p, 99300); err != nil {
			t.Fatalf("pair %d before chaos: %v", p.Index, err)
		}
	}
	rep, err := tb.RunChaos(d, w, mustPairs(t, w, 1), ChaosSpec{Seed: 5, Wires: 1, Timeout: 2 * daemonWait})
	if err != nil {
		t.Fatalf("chaos (report %+v): %v", rep, err)
	}
	verifyAll(t, tb, pairs, 99400)
}

// TestMinCutGuardNeverStrands is the guard's property test: across
// families and seeds, every admitted kill set leaves all intent
// endpoint pairs connected (so the daemon is never asked to satisfy an
// impossible goal).
func TestMinCutGuardNeverStrands(t *testing.T) {
	fabrics := []*topo.Wiring{}
	for _, gen := range []func() (*topo.Wiring, error){
		func() (*topo.Wiring, error) { return topo.FatTree(4) },
		func() (*topo.Wiring, error) { return topo.Ring(32) },
		func() (*topo.Wiring, error) { return topo.Torus(4, 8) },
		func() (*topo.Wiring, error) { return topo.Waxman(48, 0.7, 0.25, 9) },
	} {
		w, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		fabrics = append(fabrics, w)
	}
	for _, w := range fabrics {
		pairs := mustPairs(t, w, 2)
		admitted := 0
		for seed := int64(0); seed < 20; seed++ {
			spec := ChaosSpec{Seed: seed, Wires: 3, Devices: 1}
			wires, devs, _, err := pickChaosKills(w, pairs, spec, rand.New(rand.NewSource(seed)))
			if err != nil {
				// Some (fabric, seed) combinations legitimately cannot
				// yield the full budget; that is a refusal, not a strand.
				continue
			}
			admitted++
			deadW := map[string]bool{}
			for _, n := range wires {
				deadW[n] = true
			}
			deadD := map[core.DeviceID]bool{}
			for _, dv := range devs {
				deadD[dv] = true
			}
			for _, p := range pairs {
				if !w.ConnectedWithout(deadW, deadD, p.A, p.B) {
					t.Errorf("%s %s seed %d: kill set %v+%v strands pair %v",
						w.Family, w.Param, seed, wires, devs, p)
				}
			}
		}
		if admitted == 0 {
			t.Errorf("%s %s: guard admitted no kill set across 20 seeds", w.Family, w.Param)
		}
	}
}

// TestTopoPlanLevelScale proves generation + planning at thousand-
// device scale: build a lite fabric (no customer routers), plan one
// cross-core intent, and require a non-empty compiled plan. Path
// lengths stay bounded through fabric choice (torus diameter grows as
// sqrt(n), ring as n/2), pinning the planner's behavior beyond the
// line without the data-plane cost.
func TestTopoPlanLevelScale(t *testing.T) {
	if testing.Short() {
		t.Skip("thousand-device plan suite skipped in -short")
	}
	cases := []struct {
		name string
		gen  func() (*topo.Wiring, error)
	}{
		{"ring/512", func() (*topo.Wiring, error) { return topo.Ring(512) }},
		{"torus/1024", func() (*topo.Wiring, error) { return topo.Torus(32, 32) }},
		{"torus/4096", func() (*topo.Wiring, error) { return topo.Torus(64, 64) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			tb, intents, err := BuildTopoVLANLite(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			build := time.Since(start)
			start = time.Now()
			plan, err := tb.NM.Plan(intents[0])
			if err != nil {
				t.Fatalf("plan on %d devices: %v", len(w.Devices), err)
			}
			if plan.Empty() || plan.Views[0].Path == nil {
				t.Fatalf("plan on %d devices compiled to nothing", len(w.Devices))
			}
			t.Logf("%s: build %v, plan %v, %d create batches", tc.name, build, time.Since(start), len(plan.Creates))
		})
	}
}

// TestDaemonEventBurstSurvival is the event-feed stress test: flap
// several wires concurrently, repeatedly, against a daemon with a
// deliberately tiny subscription buffer. Events WILL be dropped — that
// is the point — but the level-triggered loop must neither deadlock
// nor lose convergence: WaitConverged returns after the burst and
// delivery still verifies, because reconcile reads actual state
// instead of trusting the (lossy) event stream.
func TestDaemonEventBurstSurvival(t *testing.T) {
	w, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	tb, pairs, d, stop := startConverged(t, w, 2, nm.DaemonConfig{Buffer: 2})
	defer stop()

	droppedBefore := tb.NM.EventsDropped()
	gen := d.ConvergeGen()
	const flappers, toggles = 6, 8
	var wg sync.WaitGroup
	for i := 0; i < flappers; i++ {
		wire := w.Wires[(i*5)%len(w.Wires)].Name
		wg.Add(1)
		go func(wire string) {
			defer wg.Done()
			for k := 0; k < toggles; k++ {
				if err := tb.Net.SetMediumUp(wire, false); err != nil {
					t.Error(err)
					return
				}
				if err := tb.Net.SetMediumUp(wire, true); err != nil {
					t.Error(err)
					return
				}
			}
		}(wire)
	}
	wg.Wait()

	if err := d.WaitConverged(gen, 2*daemonWait); err != nil {
		t.Fatalf("daemon lost convergence under event burst: %v", err)
	}
	if !d.Status().Healthy() {
		t.Errorf("daemon unhealthy after burst: %+v", d.Status())
	}
	verifyAll(t, tb, pairs, 99600)
	t.Logf("burst dropped %d events (buffer=2)", tb.NM.EventsDropped()-droppedBefore)
}
