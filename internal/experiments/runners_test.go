package experiments

import (
	"strings"
	"testing"

	"conman/internal/core"
	"conman/internal/legacy"
)

func TestTable3GREAbstraction(t *testing.T) {
	abs, rendered, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	// Row-by-row checks against the paper's Table III.
	if got := abs.Ref; got != core.Ref(core.NameGRE, "A", "l") {
		t.Errorf("name = %s", got)
	}
	if len(abs.Up.Connectable) != 1 || abs.Up.Connectable[0] != core.NameIPv4 {
		t.Errorf("up connectable = %v, want IPv4 only", abs.Up.Connectable)
	}
	if len(abs.Up.Dependencies) != 1 || abs.Up.Dependencies[0].Kind != core.DepTradeoff {
		t.Errorf("up dependencies = %v, want trade-off choice", abs.Up.Dependencies)
	}
	if len(abs.Down.Connectable) != 1 || abs.Down.Connectable[0] != core.NameIPv4 {
		t.Errorf("down connectable = %v", abs.Down.Connectable)
	}
	if len(abs.Down.Dependencies) != 0 {
		t.Errorf("down dependencies = %v, want none", abs.Down.Dependencies)
	}
	if len(abs.Physical) != 0 {
		t.Errorf("physical pipes = %v, want none", abs.Physical)
	}
	if len(abs.Peerable) != 1 || abs.Peerable[0] != core.NameGRE {
		t.Errorf("peerable = %v, want GRE", abs.Peerable)
	}
	if abs.Filter.CanFilter() {
		t.Error("filter should be nil")
	}
	if !abs.Switch.Supports(core.SwUpDown) || !abs.Switch.Supports(core.SwDownUp) || len(abs.Switch.Modes) != 2 {
		t.Errorf("switch modes = %v", abs.Switch.Modes)
	}
	if len(abs.Tradeoffs) != 2 {
		t.Fatalf("tradeoffs = %v, want 2", abs.Tradeoffs)
	}
	if abs.Tradeoffs[0].Get[0] != core.MetricOrdering {
		t.Errorf("first tradeoff gets %v, want ordering", abs.Tradeoffs[0].Get)
	}
	if abs.Tradeoffs[1].Get[0] != core.MetricErrorRate {
		t.Errorf("second tradeoff gets %v, want error-rate", abs.Tradeoffs[1].Get)
	}
	if abs.Security.Offers() {
		t.Error("security should be nil")
	}
	for _, want := range []string{"<GRE,A,l>", "[up => down],[down => up]", "ordering", "error-rate"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendering missing %q:\n%s", want, rendered)
		}
	}
}

func TestTable4DeviceAModules(t *testing.T) {
	out, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	// Spot checks against Table IV.
	for _, want := range []string{
		"<ETH,A,a>",
		"customer-facing",
		"<MPLS,A,o>  Up: {IP}, Down: {ETH}",
		"[down => down]", // MPLS transit capability
		"<IP,A,g>  Up: {IP, GRE}, Down: {IP, GRE, MPLS, ETH}",
		"<GRE,A,l>  Up: {IP}, Down: {IP}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table IV missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Subgraph(t *testing.T) {
	edges, dot, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(edges, "\n")
	// Fig 5's key edges on device A.
	for _, want := range []string{
		"<IP,A,g> -- down/up pipe -- <ETH,A,a>",
		"<IP,A,g> -- down/up pipe -- <GRE,A,l>",
		"<GRE,A,l> -- down/up pipe -- <IP,A,h>",
		"<IP,A,g> -- down/up pipe -- <MPLS,A,o>",
		"<MPLS,A,o> -- down/up pipe -- <ETH,A,b>",
		"<IP,A,g> has [down => down] switching",
		"physical pipe Phy-eth1 -- (external)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Fig5 missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(dot, "graph \"A\"") || !strings.Contains(dot, "<GRE,A,l>") {
		t.Errorf("DOT rendering malformed:\n%s", dot)
	}
}

func TestFig6PruningRules(t *testing.T) {
	res, err := Paths9()
	if err != nil {
		t.Fatal(err)
	}
	// Fig 6(b): the path finder must have rejected cross-domain peering
	// (customer IP module peering with ISP IP module) at least once.
	if res.Stats.DomainMismatch == 0 {
		t.Error("no address-domain prunes recorded (Fig 6b rule inactive)")
	}
	// Encapsulation sanity must also have pruned branches.
	if res.Stats.NameMismatch == 0 {
		t.Error("no protocol-sanity prunes recorded")
	}
	if res.Stats.Visited == 0 {
		t.Error("no cycle-avoidance prunes recorded")
	}
}

func TestPaths9Render(t *testing.T) {
	res, err := Paths9()
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if !strings.Contains(out, "9 paths") {
		t.Errorf("render: %s", out)
	}
}

func TestTable5MatchesPaper(t *testing.T) {
	rows, rendered, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]legacy.TableVRow{}
	for _, r := range rows {
		byName[r.Scenario] = r
	}
	// Today columns: exact paper values (asserted in legacy tests too).
	if c := byName["GRE"].Today; c.SpecificCommands != 6 || c.SpecificVars != 11 {
		t.Errorf("GRE today = %+v", c)
	}
	// CONMan columns: the paper's headline results hold exactly —
	// zero protocol-specific commands everywhere, and only the
	// customer prefix + gateway remain as specific variables for the
	// routed scenarios.
	for _, sc := range []string{"GRE", "MPLS", "VLAN"} {
		c := byName[sc].CONMan
		if c.SpecificCommands != 0 {
			t.Errorf("%s CONMan specific commands = %d, want 0", sc, c.SpecificCommands)
		}
		if c.GenericCommands != 2 {
			t.Errorf("%s CONMan generic commands = %d, want 2 (create pipe/switch)", sc, c.GenericCommands)
		}
	}
	if c := byName["GRE"].CONMan; c.SpecificVars != 2 {
		t.Errorf("GRE CONMan specific vars = %d, want 2 (C1-S2, S1-gateway)", c.SpecificVars)
	}
	if c := byName["MPLS"].CONMan; c.SpecificVars != 2 {
		t.Errorf("MPLS CONMan specific vars = %d, want 2", c.SpecificVars)
	}
	if !strings.Contains(rendered, "Generic Commands") {
		t.Errorf("render:\n%s", rendered)
	}
}

func TestTable6FormulasHold(t *testing.T) {
	rows, rendered, err := Table6([]int{3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Matches() {
			t.Errorf("%s n=%d: sent %d (want %d), received %d (want %d)",
				r.Scenario, r.N, r.Sent, r.WantSent, r.Received, r.WantReceived)
		}
	}
	if testing.Verbose() {
		t.Log("\n" + rendered)
	}
}

func TestTable6DataPlaneAtPaperScale(t *testing.T) {
	// The paper's lab had n=3; verify the chains actually forward at
	// that scale (larger n would need an IGP for transit reachability,
	// which CONMan delegates to control modules, §II-F).
	for _, sc := range []struct {
		name  string
		build func(int) (*Testbed, error)
		desc  string
		tag   bool
	}{
		{"GRE", BuildLinearGRE, "GRE-IP tunnel", false},
		{"MPLS", BuildLinearMPLS, "MPLS", false},
		{"VLAN", BuildLinearVLAN, "VLAN tunnel", true},
	} {
		tb, err := sc.build(3)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if _, _, err := ConfigureVPN(tb, LinearGoal(3, sc.tag), sc.desc); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if err := tb.VerifyConnectivity(60000); err != nil {
			t.Errorf("%s chain n=3: %v", sc.name, err)
		}
	}
}

func TestFig7Fig8Fig9Comparisons(t *testing.T) {
	for _, f := range []func() (*ConfigComparison, error){Fig7, Fig8, Fig9Run} {
		cmp, err := f()
		if err != nil {
			t.Fatal(err)
		}
		if !cmp.Verified {
			t.Errorf("%s: data plane not verified", cmp.Scenario)
		}
		out := cmp.Render()
		for _, want := range []string{"Configuration today", "CONMan configuration", "Device-level commands"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s render missing %q", cmp.Scenario, want)
			}
		}
	}
}
