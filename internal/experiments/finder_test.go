package experiments

// Exact counts and a seeded differential guard for the best-first
// finder. The counts are machine-independent, so a change to the
// search's state (the dominance key, the flavour tracking, the pruning
// rules) shows up here as a moved number; the differential test holds
// every such change to the exhaustive enumerator's answer.

import (
	"fmt"
	"strings"
	"testing"

	"conman/internal/nm"
	"conman/internal/topo"
)

// findSpecFor is the FindSpec NM.Plan builds for a goal.
func findSpecFor(goal nm.Goal, prefer string) nm.FindSpec {
	return nm.FindSpec{
		From: goal.From, To: goal.To, TrafficDomain: goal.TrafficDomain,
		FromPipe: goal.FromPipe, ToPipe: goal.ToPipe,
		Prefer: prefer,
	}
}

// hopRefs renders a path as its hops' device/module refs.
func hopRefs(p *nm.Path) string {
	refs := make([]string, len(p.Hops))
	for i, h := range p.Hops {
		refs[i] = string(h.Node.Ref.Device) + "/" + string(h.Node.Ref.Module)
	}
	return strings.Join(refs, " ")
}

// waxmanLite builds the L2 fabric over a seeded Waxman graph, the
// topology of the benchmark's plan-fabric workload.
func waxmanLite(t *testing.T, n int, seed int64) (*Testbed, nm.Intent) {
	t.Helper()
	w, err := topo.Waxman(n, 0.7, 0.25, seed)
	if err != nil {
		t.Fatal(err)
	}
	tb, intents, err := BuildTopoVLANLite(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tb, intents[0]
}

// TestFinderExactCounts pins the states the best-first finder expands on
// plan-fabric's six Waxman-64 graphs, with and without the intent's
// flavour, and on the n=128 GRE+IGP chain, together with the six paths
// it chooses without one.
func TestFinderExactCounts(t *testing.T) {
	const (
		wantPlain    = 46751 // six Waxman-64 graphs, no Prefer
		wantPrefer   = 21481 // the same graphs, Prefer "VLAN tunnel"
		wantGREChain = 1047  // GRE+IGP chain, n=128, Prefer "GRE-IP tunnel"
	)
	// The chosen paths, hop by hop as device/module.
	wantPaths := []string{
		"wx0000/eth wx0000/vlan wx0000/eth wx0004/eth wx0032/eth wx0032/vlan wx0032/eth",
		"wx0000/eth wx0000/vlan wx0000/eth wx0032/eth wx0032/vlan wx0032/eth",
		"wx0000/eth wx0000/vlan wx0000/eth wx0032/eth wx0032/vlan wx0032/eth",
		"wx0000/eth wx0000/vlan wx0000/eth wx0002/eth wx0032/eth wx0032/vlan wx0032/eth",
		"wx0000/eth wx0000/vlan wx0000/eth wx0014/eth wx0032/eth wx0032/vlan wx0032/eth",
		"wx0000/eth wx0000/vlan wx0000/eth wx0042/eth wx0032/eth wx0032/vlan wx0032/eth",
	}
	plain, prefer := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		tb, intent := waxmanLite(t, 64, seed)
		g, err := nm.BuildGraph(tb.NM)
		if err != nil {
			t.Fatal(err)
		}
		p, stats, err := g.FindBest(findSpecFor(intent.Goal, ""))
		if err != nil || p == nil {
			t.Fatalf("seed %d: no path (%v)", seed, err)
		}
		if got := hopRefs(p); got != wantPaths[seed-1] {
			t.Errorf("seed %d: chose %q, want %q", seed, got, wantPaths[seed-1])
		}
		plain += stats.Expanded
		p, stats, err = g.FindBest(findSpecFor(intent.Goal, intent.Prefer))
		if err != nil || p == nil {
			t.Fatalf("seed %d, Prefer %q: no path (%v)", seed, intent.Prefer, err)
		}
		prefer += stats.Expanded
		tb.Close()
	}
	if plain != wantPlain {
		t.Errorf("no Prefer: %d states expanded, want %d", plain, wantPlain)
	}
	if prefer != wantPrefer {
		t.Errorf("Prefer %q: %d states expanded, want %d", "VLAN tunnel", prefer, wantPrefer)
	}

	const n = 128
	sc := GREIGPScenario()
	tb, err := sc.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	g, err := nm.BuildGraph(tb.NM)
	if err != nil {
		t.Fatal(err)
	}
	p, stats, err := g.FindBest(findSpecFor(sc.Intent(n).Goal, sc.PathDesc))
	if err != nil || p == nil {
		t.Fatalf("GRE+IGP n=%d: no path (%v)", n, err)
	}
	if stats.Expanded != wantGREChain {
		t.Errorf("GRE+IGP n=%d: %d states expanded, want %d", n, stats.Expanded, wantGREChain)
	}
}

// TestFindBestMatchesEnumeratorOnWaxman is the differential guard for
// the best-first dominance key: on small seeded Waxman graphs, built as
// both the L2 fabric and the routed GRE+IGP fabric, FindBest must choose
// the module and mode sequence that selection over the full (uncapped)
// enumeration chooses — with no Prefer, and preferring the builder's own
// flavour.
func TestFindBestMatchesEnumeratorOnWaxman(t *testing.T) {
	type builder struct {
		name  string
		build func(w *topo.Wiring) (*Testbed, nm.Goal, string, error)
	}
	builders := []builder{
		{"vlan-lite", func(w *topo.Wiring) (*Testbed, nm.Goal, string, error) {
			tb, intents, err := BuildTopoVLANLite(w, 1)
			if err != nil {
				return nil, nm.Goal{}, "", err
			}
			return tb, intents[0].Goal, intents[0].Prefer, nil
		}},
		{"gre-igp", func(w *topo.Wiring) (*Testbed, nm.Goal, string, error) {
			tb, pairs, err := BuildTopoGREIGP(w, 1)
			if err != nil {
				return nil, nm.Goal{}, "", err
			}
			return tb, pairs[0].Goal, "GRE-IP tunnel", nil
		}},
	}
	cases := 0
	for _, b := range builders {
		for n := 4; n <= 6; n++ {
			for seed := int64(1); seed <= 150; seed++ {
				w, err := topo.Waxman(n, 0.7, 0.25, seed)
				if err != nil {
					t.Fatal(err)
				}
				tb, goal, flavour, err := b.build(w)
				if err != nil {
					t.Fatalf("%s n=%d seed %d: %v", b.name, n, seed, err)
				}
				g, err := nm.BuildGraph(tb.NM)
				tb.Close()
				if err != nil {
					t.Fatal(err)
				}
				for _, prefer := range []string{"", flavour} {
					name := fmt.Sprintf("%s n=%d seed %d prefer %q", b.name, n, seed, prefer)
					best, want := findBoth(t, g, goal, prefer)
					if got, exp := pathSig(best), pathSig(want); got != exp {
						t.Errorf("%s:\n best-first %s\n enumerator %s", name, got, exp)
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}

// TestFindBestNetCoversDeviceRevisit pins why FindBest keeps its
// completeness net. The only transparent-core VLAN path on this graph
// leaves wx0002 and comes back to it (wx0000 → wx0002 → wx0001 →
// wx0002); the dominance key does not record visits, so the prefix that
// survives is blocked by the per-module visit limit and the search alone
// finds no path. The net re-runs the enumerator and returns its path.
func TestFindBestNetCoversDeviceRevisit(t *testing.T) {
	tb, intent := waxmanLite(t, 4, 56)
	defer tb.Close()
	g, err := nm.BuildGraph(tb.NM)
	if err != nil {
		t.Fatal(err)
	}
	best, want := findBoth(t, g, intent.Goal, "VLAN tunnel (transparent core)")
	if want == nil {
		t.Fatal("the enumerator finds no transparent-core path: the regression case is stale")
	}
	if got, exp := pathSig(best), pathSig(want); got != exp {
		t.Fatalf("best-first %s\nenumerator %s", got, exp)
	}
}
