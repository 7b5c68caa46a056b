package nm

import (
	"math/rand"
	"strings"
	"testing"

	"conman/internal/core"
)

// TestFindBestMatchesSelectPath pins the engines against each other on
// the two-router graph: the best-first result must be the exact path
// the exhaustive enumerate-then-select pipeline picks, and the
// Exhaustive knob must route FindBest through the legacy engine with
// the same outcome.
func TestFindBestMatchesSelectPath(t *testing.T) {
	n := buildTwoRouterNM(t)
	g, err := BuildGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	spec := FindSpec{
		From:          core.Ref(core.NameETH, "R1", "a"),
		To:            core.Ref(core.NameETH, "R2", "f"),
		TrafficDomain: "C1",
	}
	paths, _, err := g.FindPaths(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := SelectPath(paths)
	if want == nil {
		t.Fatal("enumerator found no path")
	}
	best, stats, err := g.FindBest(spec)
	if err != nil {
		t.Fatal(err)
	}
	if best == nil {
		t.Fatal("best-first found no path")
	}
	if best.Modules() != want.Modules() || modeString(best) != modeString(want) {
		t.Fatalf("best-first picked %q [%s], enumerator %q [%s]",
			best.Modules(), modeString(best), want.Modules(), modeString(want))
	}
	if stats.Expanded == 0 {
		t.Error("best-first reported zero expanded states")
	}

	exh := spec
	exh.Exhaustive = true
	legacy, _, err := g.FindBest(exh)
	if err != nil {
		t.Fatal(err)
	}
	if legacy == nil || legacy.Modules() != want.Modules() {
		t.Fatalf("Exhaustive knob picked %v, want %q", legacy, want.Modules())
	}
}

// TestFindBestPrefer exercises flavour pinning: each Describe() string
// present in the enumeration must be reachable through Prefer, and an
// unknown flavour must come back nil without error.
func TestFindBestPrefer(t *testing.T) {
	n := buildTwoRouterNM(t)
	g, err := BuildGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	spec := FindSpec{
		From:          core.Ref(core.NameETH, "R1", "a"),
		To:            core.Ref(core.NameETH, "R2", "f"),
		TrafficDomain: "C1",
	}
	paths, _, err := g.FindPaths(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	for _, p := range paths {
		sp := spec
		sp.Prefer = p.Describe()
		got, _, err := g.FindBest(sp)
		if err != nil {
			t.Fatal(err)
		}
		if got == nil {
			t.Fatalf("Prefer %q found no path", sp.Prefer)
		}
		if got.Describe() != sp.Prefer {
			t.Fatalf("Prefer %q returned a %q path", sp.Prefer, got.Describe())
		}
	}
	sp := spec
	sp.Prefer = "carrier pigeon"
	if got, _, err := g.FindBest(sp); err != nil || got != nil {
		t.Fatalf("unknown flavour: got %v, %v; want nil, nil", got, err)
	}
}

// TestFindBestEndpointErrors mirrors the enumerator's endpoint
// validation.
func TestFindBestEndpointErrors(t *testing.T) {
	n := buildTwoRouterNM(t)
	g, err := BuildGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.FindBest(FindSpec{
		From: core.Ref(core.NameETH, "R9", "z"),
		To:   core.Ref(core.NameETH, "R2", "f"),
	}); err == nil {
		t.Error("unknown From module did not error")
	}
	if _, _, err := g.FindBest(FindSpec{
		From: core.Ref(core.NameETH, "R1", "b"), // internal, no external pipe
		To:   core.Ref(core.NameETH, "R2", "f"),
	}); err == nil {
		t.Error("From module without an external pipe did not error")
	}
}

// TestFindBestMaxStack pins the encapsulation bound: a MaxStack too
// small for the only available path must yield no path (counted in
// StackCap), not a crash or a deeper-than-allowed path.
func TestFindBestMaxStack(t *testing.T) {
	n := buildTwoRouterNM(t)
	g, err := BuildGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	spec := FindSpec{
		From:          core.Ref(core.NameETH, "R1", "a"),
		To:            core.Ref(core.NameETH, "R2", "f"),
		TrafficDomain: "C1",
		// Even the plain path must re-push an Ethernet header over the
		// customer's IP packet; a bound of one forbids every push.
		MaxStack: 1,
	}
	got, stats, err := g.FindBest(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("MaxStack=1 still found %q", got.Modules())
	}
	if stats.StackCap == 0 {
		t.Error("StackCap prune counter never fired")
	}
}

// TestPreferUnknownFlag pins how exotic preference strings fail: Prefer
// accepts exactly the strings Describe can return, and anything else
// (a typo such as "GRE tunnel" or "VLAN tunnels") raises
// PruneStats.PreferUnknown in both engines, at once, with no state
// expanded — no path could match it, so searching would only burn the
// expansion valve. Known flavours and unpinned searches leave the flag
// clear.
func TestPreferUnknownFlag(t *testing.T) {
	n := buildTwoRouterNM(t)
	g, err := BuildGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	spec := FindSpec{
		From:          core.Ref(core.NameETH, "R1", "a"),
		To:            core.Ref(core.NameETH, "R2", "f"),
		TrafficDomain: "C1",
	}

	for _, known := range []string{
		"plain", "MPLS", "GRE-IP tunnel", "GRE-IP tunnel over MPLS",
		"GRE-IP tunnel over MPLS (A-B)", "IP-IP tunnel", "IP-IP tunnel over MPLS (R1-R2)",
		"VLAN tunnel", "VLAN tunnel (segmented)", "VLAN tunnel (transparent core)",
	} {
		if !PreferRecognized(known) {
			t.Errorf("PreferRecognized(%q) = false, want true", known)
		}
	}
	exotics := []string{
		"GRE tunnel", "carrier pigeon", "mpls", "VLAN tunnels", "GRE-IP tunnelx",
		"VLAN", "IP-IP tunnel over MPLS ()", "GRE-IP tunnel over MPLS (A)",
	}
	for _, exotic := range exotics {
		if PreferRecognized(exotic) {
			t.Errorf("PreferRecognized(%q) = true, want false", exotic)
		}
	}

	// Unpinned search: flag stays clear.
	if _, stats, err := g.FindBest(spec); err != nil || stats.PreferUnknown {
		t.Fatalf("unpinned search: PreferUnknown=%v err=%v, want false, nil", stats.PreferUnknown, err)
	}

	// A recognised flavour: flag stays clear.
	sp := spec
	sp.Prefer = "plain"
	if _, stats, err := g.FindBest(sp); err != nil || stats.PreferUnknown {
		t.Fatalf("recognised flavour: PreferUnknown=%v err=%v, want false, nil", stats.PreferUnknown, err)
	}

	// An exotic string: nil path, flag raised, and no state expanded, in
	// both engines.
	for _, exhaustive := range []bool{false, true} {
		for _, exotic := range exotics {
			sp.Prefer, sp.Exhaustive = exotic, exhaustive
			got, stats, err := g.FindBest(sp)
			if err != nil {
				t.Fatal(err)
			}
			if got != nil {
				t.Fatalf("exhaustive=%v: exotic flavour %q returned a %q path", exhaustive, exotic, got.Describe())
			}
			if !stats.PreferUnknown {
				t.Errorf("exhaustive=%v: exotic flavour %q did not raise PreferUnknown", exhaustive, exotic)
			}
			if stats.Expanded != 0 {
				t.Errorf("exhaustive=%v: exotic flavour %q expanded %d states, want 0", exhaustive, exotic, stats.Expanded)
			}
		}
	}
}

// TestTieOrderMatchesJoinedStrings holds the best-first tie-break to
// the order it stands in for: the module ids joined by ", " as
// Path.Modules() prints them, then the concatenated switching modes as
// modeString renders them. Seeded random pairs of equal-depth hop
// chains share a random prefix; ids include proper prefixes of one
// another ("e"/"e0"), every switching mode occurs, and a third of the
// pairs differ only in their modes.
func TestTieOrderMatchesJoinedStrings(t *testing.T) {
	ids := []core.ModuleID{"a", "b", "e", "e0", "e01", "eth", "eth0", "f", "vlan", "vlan1"}
	modes := []core.SwitchMode{
		core.SwDownUp, core.SwUpDown, core.SwDownDown, core.SwUpUp, core.SwUpPhy,
		core.SwPhyUp, core.SwPhyPhy, core.SwPhyDown, core.SwDownPhy,
	}
	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		nodes[i] = &Node{Ref: core.Ref(core.NameETH, "d", id)}
	}
	rankModuleIDs(nodes)

	type hop struct {
		node *Node
		mode core.SwitchMode
	}
	chain := func(parent *bfNode, hops []hop) *bfNode {
		for _, h := range hops {
			parent = &bfNode{parent: parent, node: h.node, mode: h.mode}
		}
		return parent
	}
	joined := func(b *bfNode) (mods, modes string) {
		var ms []string
		for ; b != nil; b = b.parent {
			ms = append([]string{string(b.node.Ref.Module)}, ms...)
			modes = b.mode.String() + modes
		}
		return strings.Join(ms, ", "), modes
	}
	sign := func(x int) int {
		switch {
		case x < 0:
			return -1
		case x > 0:
			return 1
		}
		return 0
	}

	rng := rand.New(rand.NewSource(39))
	randHops := func(n int) []hop {
		hs := make([]hop, n)
		for i := range hs {
			hs[i] = hop{nodes[rng.Intn(len(nodes))], modes[rng.Intn(len(modes))]}
		}
		return hs
	}
	modesOnly := 0
	for trial := 0; trial < 20000; trial++ {
		prefix := chain(nil, randHops(rng.Intn(5)))
		depth := 1 + rng.Intn(6)
		as, bs := randHops(depth), randHops(depth)
		if trial%3 == 0 {
			for i := range bs {
				bs[i].node = as[i].node
				if rng.Intn(2) == 0 {
					bs[i].mode = as[i].mode
				}
			}
		}
		a, b := chain(prefix, as), chain(prefix, bs)
		am, amodes := joined(a)
		bm, bmodes := joined(b)
		want := strings.Compare(am, bm)
		if want == 0 {
			want = strings.Compare(amodes, bmodes)
			if amodes != bmodes {
				modesOnly++
			}
		}
		if got := sign(tieOrder(a, b)); got != want {
			t.Fatalf("trial %d: tieOrder = %d, joined strings compare %d\n a: %s %s\n b: %s %s",
				trial, got, want, am, amodes, bm, bmodes)
		}
	}
	if modesOnly < 1000 {
		t.Fatalf("only %d pairs differed in modes alone", modesOnly)
	}
}
