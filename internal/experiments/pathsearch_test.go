package experiments

// Tests for the goal-directed best-first path finder: equivalence with
// the exhaustive enumerator on every built-in scenario, byte-identical
// determinism on long chains, and the beyond-the-cap regime (n=256)
// where enumerate-then-filter stops being trustworthy.

import (
	"fmt"
	"strings"
	"testing"

	"conman/internal/nm"
)

// pathSig renders a path for byte-exact comparison: module sequence
// plus switching-mode sequence (paths can share modules but differ in
// modes).
func pathSig(p *nm.Path) string {
	if p == nil {
		return "<none>"
	}
	var modes []string
	for _, h := range p.Hops {
		modes = append(modes, h.Mode.String())
	}
	return p.Modules() + " | " + strings.Join(modes, "")
}

// findBoth runs the same spec through the best-first engine and the
// exhaustive enumerator (uncapped, so small scenarios enumerate fully).
func findBoth(t *testing.T, g *nm.Graph, goal nm.Goal, prefer string) (best, exhaustive *nm.Path) {
	t.Helper()
	spec := findSpecFor(goal, prefer)
	best, _, err := g.FindBest(spec)
	if err != nil {
		t.Fatalf("best-first (%q): %v", prefer, err)
	}
	spec.Exhaustive = true
	spec.MaxPaths = 200000
	exhaustive, _, err = g.FindBest(spec)
	if err != nil {
		t.Fatalf("exhaustive (%q): %v", prefer, err)
	}
	return best, exhaustive
}

// TestBestFirstMatchesExhaustive is the equivalence property over every
// built-in scenario: for the automatic selector and for every path
// flavour the enumerator can see, best-first and exhaustive must pick
// the identical path.
func TestBestFirstMatchesExhaustive(t *testing.T) {
	type scenario struct {
		name  string
		build func() (*Testbed, nm.Goal, error)
	}
	scenarios := []scenario{
		{"fig4", func() (*Testbed, nm.Goal, error) {
			tb, err := BuildFig4()
			return tb, Fig4Goal(), err
		}},
		{"fig9", func() (*Testbed, nm.Goal, error) {
			tb, err := BuildFig9()
			return tb, Fig9Goal(), err
		}},
		{"linear-GRE", func() (*Testbed, nm.Goal, error) {
			tb, err := BuildLinearGRE(6)
			return tb, LinearGoal(6, false), err
		}},
		{"linear-MPLS", func() (*Testbed, nm.Goal, error) {
			tb, err := BuildLinearMPLS(6)
			return tb, LinearGoal(6, false), err
		}},
		{"linear-VLAN", func() (*Testbed, nm.Goal, error) {
			tb, err := BuildLinearVLAN(6)
			return tb, LinearGoal(6, true), err
		}},
		{"diamond-shared", func() (*Testbed, nm.Goal, error) {
			tb, pairs, err := BuildDiamondShared(2)
			if err != nil {
				return nil, nm.Goal{}, err
			}
			return tb, pairs[0].Goal, nil
		}},
		{"linear-VLAN-shared", func() (*Testbed, nm.Goal, error) {
			tb, pairs, err := BuildLinearVLANShared(6, 2)
			if err != nil {
				return nil, nm.Goal{}, err
			}
			return tb, pairs[1].Goal, nil
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			tb, goal, err := sc.build()
			if err != nil {
				t.Fatal(err)
			}
			g, err := nm.BuildGraph(tb.NM)
			if err != nil {
				t.Fatal(err)
			}
			// Every flavour the (uncapped) enumerator can see, plus the
			// automatic selector.
			paths, _, err := g.FindPaths(nm.FindSpec{
				From: goal.From, To: goal.To, TrafficDomain: goal.TrafficDomain,
				FromPipe: goal.FromPipe, ToPipe: goal.ToPipe, MaxPaths: 200000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(paths) == 0 {
				t.Fatal("enumerator found no paths")
			}
			flavours := []string{""}
			seen := map[string]bool{}
			for _, p := range paths {
				if d := p.Describe(); !seen[d] {
					seen[d] = true
					flavours = append(flavours, d)
				}
			}
			for _, prefer := range flavours {
				best, exh := findBoth(t, g, goal, prefer)
				if exh == nil {
					t.Fatalf("exhaustive found no path for prefer=%q", prefer)
				}
				if got, want := pathSig(best), pathSig(exh); got != want {
					t.Errorf("prefer=%q:\n best-first %s\n exhaustive %s", prefer, got, want)
				}
			}
		})
	}
}

// TestBestFirstDeterministicLongChain is the long-chain determinism
// golden: ten searches over the same n=128 graph must return
// byte-identical module and mode sequences (priority-queue tie-breaks
// must not leak map-iteration or heap-layout nondeterminism), and the
// result must be the canonical one-tag-spanning VLAN path.
func TestBestFirstDeterministicLongChain(t *testing.T) {
	const n = 128
	tb, err := BuildLinearVLAN(n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := nm.BuildGraph(tb.NM)
	if err != nil {
		t.Fatal(err)
	}
	goal := LinearGoal(n, true)
	spec := nm.FindSpec{From: goal.From, To: goal.To, TrafficDomain: goal.TrafficDomain, Prefer: "VLAN tunnel"}

	// The canonical path enters each switch's ETH module, dives through
	// its VLAN module, and leaves through the ETH module again.
	canonical := strings.TrimSuffix(strings.Repeat("eth, vlan, eth, ", n), ", ")

	var first string
	for i := 0; i < 10; i++ {
		p, _, err := g.FindBest(spec)
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			t.Fatal("no path")
		}
		sig := pathSig(p)
		if i == 0 {
			first = sig
			if p.Modules() != canonical {
				t.Fatalf("run 0 is not the canonical path:\ngot  %s\nwant %s", p.Modules(), canonical)
			}
			continue
		}
		if sig != first {
			t.Fatalf("run %d differs:\nrun 0: %s\nrun %d: %s", i, first, i, sig)
		}
	}
}

// TestBestFirstBeyondEnumerationCap pins the regime the finder was
// rebuilt for: at n=256 the exhaustive enumerator truncates at
// DefaultMaxPaths — selection over the truncated set returns a
// cap-artifact hybrid — while best-first finds both the true automatic
// selection and the canonical preferred path, expanding an order of
// magnitude fewer states.
func TestBestFirstBeyondEnumerationCap(t *testing.T) {
	if testing.Short() {
		t.Skip("large topology")
	}
	const n = 256
	tb, err := BuildLinearVLAN(n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := nm.BuildGraph(tb.NM)
	if err != nil {
		t.Fatal(err)
	}
	goal := LinearGoal(n, true)
	base := nm.FindSpec{From: goal.From, To: goal.To, TrafficDomain: goal.TrafficDomain}

	// The old engine: enumeration hits the cap, and the minimum-pipe
	// selection over the truncated set is a hybrid artifact (canonical
	// prefix, transparent tail) instead of the true 4-pipe path.
	paths, exhStats, err := g.FindPaths(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < nm.DefaultMaxPaths {
		t.Fatalf("enumeration no longer hits the cap at n=%d (%d paths) — this test is stale", n, len(paths))
	}
	truncated := nm.SelectPath(paths)

	// Best-first, automatic selection: the true minimum-pipe path
	// (tag pushed at the edges, transparent core).
	best, bfStats, err := g.FindBest(base)
	if err != nil {
		t.Fatal(err)
	}
	if best == nil {
		t.Fatal("best-first found no path")
	}
	if best.Pipes() >= truncated.Pipes() {
		t.Errorf("best-first pipes %d not better than truncated enumeration's %d", best.Pipes(), truncated.Pipes())
	}
	if best.Pipes() != 4 {
		t.Errorf("true best path has %d pipes, want 4 (%s)", best.Pipes(), best.Describe())
	}

	// Best-first, preferred canonical flavour.
	prefSpec := base
	prefSpec.Prefer = "VLAN tunnel"
	canon, prefStats, err := g.FindBest(prefSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSuffix(strings.Repeat("eth, vlan, eth, ", n), ", ")
	if canon == nil || canon.Modules() != want {
		t.Fatalf("best-first did not find the canonical VLAN path at n=%d", n)
	}

	// Cost: the goal-directed preferred search expands an order of
	// magnitude fewer states than the capped enumeration; the automatic
	// selector (which must sweep every flavour corridor before the
	// cheapest completion is provably best) still expands several times
	// fewer — and returns the right answer where the enumerator cannot.
	if prefStats.Expanded*10 > exhStats.Expanded {
		t.Errorf("prefer: best-first expanded %d states, exhaustive %d — want >=10x fewer",
			prefStats.Expanded, exhStats.Expanded)
	}
	if bfStats.Expanded*2 > exhStats.Expanded {
		t.Errorf("auto: best-first expanded %d states, exhaustive %d — want >=2x fewer",
			bfStats.Expanded, exhStats.Expanded)
	}
	t.Logf("n=%d: exhaustive %d expansions (capped at %d paths); best-first auto %d, prefer %d",
		n, exhStats.Expanded, len(paths), bfStats.Expanded, prefStats.Expanded)
}

// TestLongChainVLANConfigure drives the full intent pipeline on the L2
// chains the enumerator struggled with: plan + apply at n=64 (and
// n=128 unless -short) keeps the Table VI message formulas, proving
// the best-first finder feeds the compiler the canonical path far
// beyond the paper's lab scale.
func TestLongChainVLANConfigure(t *testing.T) {
	ns := []int{64}
	if !testing.Short() {
		ns = append(ns, 128)
	}
	sc, err := LinearScenarioByName("VLAN")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ns {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			tb, err := sc.Build(n)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sc.ConfigureLinear(tb, n); err != nil {
				t.Fatal(err)
			}
			c := tb.NM.Counters()
			if c.Sent() != sc.WantSent(n) || c.Received() != sc.WantRecv(n) {
				t.Errorf("sent %d (want %d), received %d (want %d)",
					c.Sent(), sc.WantSent(n), c.Received(), sc.WantRecv(n))
			}
		})
	}
}

// TestResolvedValueDriftReplan is the drift regression: a SetDomain or
// SetGateway change after a successful apply must surface as a
// non-empty plan (the installed rule still matches abstractly but its
// concrete resolution diverged), and applying that plan must converge.
func TestResolvedValueDriftReplan(t *testing.T) {
	sc, err := LinearScenarioByName("GRE")
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	tb, err := sc.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ConfigureLinear(tb, n); err != nil {
		t.Fatal(err)
	}
	intent := sc.Intent(n)

	fresh, err := tb.NM.Plan(intent)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Empty() {
		t.Fatalf("plan right after apply is not empty:\n%s", fresh.Render())
	}

	// Drift the destination domain: the ingress classifier's resolved
	// prefix changes while the abstract rule stays identical.
	tb.NM.SetDomain("C1-S2", "10.0.99.0/24")
	drifted, err := tb.NM.Plan(intent)
	if err != nil {
		t.Fatal(err)
	}
	if drifted.Empty() {
		t.Fatal("SetDomain drift produced an empty plan — resolved-value drift not detected")
	}
	rendered := drifted.Render()
	if !strings.Contains(rendered, "dst:C1-S2") {
		t.Errorf("drift plan does not recreate the classified ingress rule:\n%s", rendered)
	}
	if len(drifted.Deletes) == 0 {
		t.Errorf("drift plan does not delete the stale rule:\n%s", rendered)
	}
	if err := tb.NM.Apply(drifted); err != nil {
		t.Fatal(err)
	}
	if again, err := tb.NM.Plan(intent); err != nil || !again.Empty() {
		t.Fatalf("plan after drift apply not empty (err=%v):\n%s", err, again.Render())
	}

	// Gateway drift is detected the same way by a plain store pass (Plan
	// already registered the intent).
	if plan, err := tb.NM.Reconcile(); err != nil || !plan.Empty() {
		t.Fatalf("first store reconcile not clean (err=%v)", err)
	}
	tb.NM.SetGateway("S2-gateway", "192.168.1.77")
	plan, err := tb.NM.PlanStore()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Empty() {
		t.Fatal("SetGateway drift produced an empty store plan")
	}
}

// TestStoreConflictEndToEnd drives the conflict check through the real
// pipeline: two registered intents over the same goal but different
// flavours compile classified ingress rules that steer the same
// customer prefix into different tunnels — Reconcile must refuse with
// a ConflictError naming both.
func TestStoreConflictEndToEnd(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	goal := Fig4Goal()
	if err := tb.NM.Submit(nm.Intent{Name: "vpn-gre", Goal: goal, Prefer: "GRE-IP tunnel"}); err != nil {
		t.Fatal(err)
	}
	if err := tb.NM.Submit(nm.Intent{Name: "vpn-mpls", Goal: goal, Prefer: "MPLS"}); err != nil {
		t.Fatal(err)
	}
	_, err = tb.NM.Reconcile()
	ce, ok := err.(*nm.ConflictError)
	if !ok {
		t.Fatalf("Reconcile() = %v, want *nm.ConflictError", err)
	}
	names := []string{ce.IntentA, ce.IntentB}
	for _, want := range []string{"vpn-gre", "vpn-mpls"} {
		if names[0] != want && names[1] != want {
			t.Errorf("conflict does not name %q: %v", want, names)
		}
	}
	// Withdrawing one side resolves the conflict.
	if err := tb.NM.Withdraw("vpn-mpls"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.NM.Reconcile(); err != nil {
		t.Fatalf("reconcile after withdraw: %v", err)
	}
}
