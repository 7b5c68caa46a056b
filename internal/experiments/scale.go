package experiments

import (
	"fmt"

	"conman/internal/nm"
)

// LinearScenario is one Table VI row: a linear-n topology builder, the
// path flavour configured on it, and the paper's closed-form message
// counts.
type LinearScenario struct {
	Name     string
	PathDesc string
	Build    func(n int) (*Testbed, error)
	// BuildOver builds the same topology with the management channel on
	// an explicit transport (nil factory = in-process Hub).
	BuildOver func(n int, f EndpointFactory) (*Testbed, error)
	// Tag marks the L2 scenarios whose goal uses the Tagged
	// classification (Fig 9b).
	Tag bool
	// WantSent / WantRecv are the paper's formulas for configuration
	// messages the NM sends / receives on a chain of n devices.
	WantSent func(n int) int
	WantRecv func(n int) int
}

// LinearScenarios returns the three Table VI scenarios: GRE (3n+2 sent /
// 2n+2 received), MPLS and VLAN (both 3n-2 / 2n-1).
func LinearScenarios() []LinearScenario {
	return []LinearScenario{
		{
			Name: "GRE", PathDesc: "GRE-IP tunnel",
			Build: BuildLinearGRE, BuildOver: BuildLinearGREOver,
			WantSent: func(n int) int { return 3*n + 2 },
			WantRecv: func(n int) int { return 2*n + 2 },
		},
		{
			Name: "MPLS", PathDesc: "MPLS",
			Build: BuildLinearMPLS, BuildOver: BuildLinearMPLSOver,
			WantSent: func(n int) int { return 3*n - 2 },
			WantRecv: func(n int) int { return 2*n - 1 },
		},
		{
			Name: "VLAN", PathDesc: "VLAN tunnel",
			Build: BuildLinearVLAN, BuildOver: BuildLinearVLANOver, Tag: true,
			WantSent: func(n int) int { return 3*n - 2 },
			WantRecv: func(n int) int { return 2*n - 1 },
		},
	}
}

// GREIGPScenario is the GRE chain with an IGP routing control module on
// every router (§II-F): the compiled configuration includes the IGP
// adjacency pipes, so the tunnel forwards end-to-end at any n — the
// scale scenario the plain GRE row only delivers at n=3. It is not part
// of LinearScenarios(): the paper's Table VI has no row for it.
// The NM's traffic is the plain GRE chain's, 5n + 4 messages (644 at
// n = 128; TestHubChainExactCounters): the IGP floods in link-local
// frames. Configured sequentially the flooding is exact and Θ(n log n),
// because the executor brings the routers up in bit-reversed order
// (TestIGPColdStartFramesPerLink); under the concurrent executor its
// volume depends on arrival order and varies.
func GREIGPScenario() LinearScenario {
	return LinearScenario{
		Name: "GRE+IGP", PathDesc: "GRE-IP tunnel",
		Build: BuildLinearGREIGP, BuildOver: BuildLinearGREIGPOver,
	}
}

// LinearScenarioByName fetches a scenario ("GRE", "MPLS", "VLAN", or the
// extra "GRE+IGP" scale scenario).
func LinearScenarioByName(name string) (LinearScenario, error) {
	for _, sc := range LinearScenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	if sc := GREIGPScenario(); sc.Name == name {
		return sc, nil
	}
	return LinearScenario{}, fmt.Errorf("experiments: no linear scenario %q", name)
}

// Intent names the scenario's connectivity goal on a chain of n devices
// as a declarative intent.
func (sc LinearScenario) Intent(n int) nm.Intent {
	return nm.Intent{
		Name:   fmt.Sprintf("%s-linear-%d", sc.Name, n),
		Goal:   LinearGoal(n, sc.Tag),
		Prefer: sc.PathDesc,
	}
}

// PlanLinear computes the scenario's reconciliation plan on a built
// linear-n testbed without applying it, so callers can time or inspect
// the apply separately (dry run).
func (sc LinearScenario) PlanLinear(tb *Testbed, n int) (*nm.Plan, error) {
	plan, err := tb.NM.Plan(sc.Intent(n))
	if err != nil {
		return nil, fmt.Errorf("%s n=%d: %w", sc.Name, n, err)
	}
	return plan, nil
}

// ConfigureLinear plans and applies the scenario on a built linear-n
// testbed. Counters are reset between planning and applying so
// tb.NM.Counters() afterwards holds configuration traffic only (the
// Table VI accounting; planning itself sends no configuration
// commands).
func (sc LinearScenario) ConfigureLinear(tb *Testbed, n int) (*nm.Plan, error) {
	plan, err := sc.PlanLinear(tb, n)
	if err != nil {
		return nil, err
	}
	tb.NM.ResetCounters()
	if err := tb.NM.Apply(plan); err != nil {
		return plan, fmt.Errorf("%s n=%d: %w", sc.Name, n, err)
	}
	return plan, nil
}
