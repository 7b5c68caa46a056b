package nm

import (
	"errors"
	"fmt"

	"conman/internal/core"
	"conman/internal/msg"
)

// Intent is a declarative connectivity goal: the NM holds it as desired
// state and can (re)derive device configuration from it at any time —
// the paper's model of a manager that keeps high-level goals and
// re-invokes configuration after failures (§II, §IV). An Intent is
// side-effect free; Plan (or Submit + PlanStore) registers it and
// computes what would change, and Apply reconciles the network toward it.
type Intent struct {
	// Name identifies the intent in the store and in plan renderings; it
	// is required.
	Name string
	// Goal is the high-level connectivity goal (§III-C).
	Goal Goal
	// Prefer pins a path flavour by its Describe() string ("GRE-IP
	// tunnel", "MPLS", "VLAN tunnel"); empty selects the paper's path
	// selector (minimise pipes, prefer fast forwarding).
	Prefer string
	// MaxPaths bounds the path search (0 = DefaultMaxPaths): the
	// enumeration cap in Exhaustive mode, a safety valve otherwise.
	MaxPaths int
	// Exhaustive compiles through the legacy enumerate-then-filter
	// finder instead of the default best-first search (A/B testing;
	// infeasible on long L2 chains, where the enumeration cap truncates
	// the variant space).
	Exhaustive bool
}

// graph returns the potential-connectivity graph for the NM's current
// compile generation, rebuilding only when discovery, topology or
// domain knowledge moved since the last build. Cache misses rebuild
// outside n.mu (BuildGraph takes it internally); a generation that
// moved mid-build simply leaves the cache unset for the next caller.
func (n *NM) graph() (*Graph, error) {
	n.mu.Lock()
	gen := n.compileGen
	if g := n.graphCache; g != nil && n.graphGen == gen {
		n.mu.Unlock()
		return g, nil
	}
	n.mu.Unlock()
	g, err := BuildGraph(n)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.compileGen == gen {
		n.graphCache, n.graphGen = g, gen
	}
	n.mu.Unlock()
	return g, nil
}

// compileIntent resolves an intent to its chosen path and the full
// desired per-device scripts (what a from-scratch configuration would
// execute).
func (n *NM) compileIntent(intent Intent) (*Path, []DeviceScript, error) {
	g, err := n.graph()
	if err != nil {
		return nil, nil, err
	}
	chosen, stats, err := g.FindBest(FindSpec{
		From:          intent.Goal.From,
		To:            intent.Goal.To,
		TrafficDomain: intent.Goal.TrafficDomain,
		FromPipe:      intent.Goal.FromPipe,
		ToPipe:        intent.Goal.ToPipe,
		MaxPaths:      intent.MaxPaths,
		Prefer:        intent.Prefer,
		Exhaustive:    intent.Exhaustive,
	})
	if err != nil {
		return nil, nil, err
	}
	if chosen == nil {
		if stats.PreferUnknown {
			return nil, nil, fmt.Errorf("nm: intent %q: %q is not a path flavour (want a Describe() string such as \"GRE-IP tunnel\", \"MPLS\" or \"VLAN tunnel\"), so no path can match it", intent.Name, intent.Prefer)
		}
		if intent.Prefer != "" {
			return nil, nil, fmt.Errorf("nm: intent %q: no %q path found", intent.Name, intent.Prefer)
		}
		return nil, nil, fmt.Errorf("nm: intent %q: no path satisfies the goal", intent.Name)
	}
	scripts, err := n.Compile(chosen, intent.Goal)
	if err != nil {
		return nil, nil, err
	}
	return chosen, scripts, nil
}

func scriptDevices(scripts []DeviceScript) []core.DeviceID {
	out := make([]core.DeviceID, len(scripts))
	for i := range scripts {
		out[i] = scripts[i].Device
	}
	return out
}

// deleteItem builds one delete command plus its rendering.
func deleteItem(req core.DeleteRequest) (msg.CommandItem, string) {
	return msg.CommandItem{Delete: &msg.DeleteReq{Req: req}},
		fmt.Sprintf("delete (%s, %s, %s)", req.Kind, req.Module, req.ID)
}

// Plan is the operator's dry run for one intent, and the store's own
// entry point: it registers the intent (Submit, or Update when the name
// is already registered), discards every cached observation, and returns
// PlanStore's diff. The intent is therefore recompiled and every
// occupied device re-read, so the plan reflects the live network rather
// than the cache; a device the cache holds a digest for is read by that
// digest and sends its state only if it changed. Other registered
// intents stay in the union: their components on shared devices are not
// stale. Planning sends no
// configuration commands; Apply executes the plan.
func (n *NM) Plan(intent Intent) (*Plan, error) {
	err := n.Submit(intent)
	var dup *DuplicateIntentError
	if errors.As(err, &dup) {
		err = n.Update(intent)
	}
	if err != nil {
		return nil, err
	}
	n.InvalidateObservations()
	return n.PlanStore()
}
