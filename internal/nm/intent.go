package nm

import (
	"errors"
	"fmt"
	"sort"

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
			return nil, nil, fmt.Errorf("nm: intent %q: no %q path found — %q is not a path flavour the finder recognises (want a Describe() string such as \"GRE-IP tunnel\", \"MPLS\" or \"VLAN tunnel\"), so the search ran undirected", intent.Name, intent.Prefer, intent.Prefer)
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

// observed is the NM's per-device view of configured components, built
// from showActual.
type observed struct {
	// pipes maps a pipe id to the (upper, lower) modules it connects
	// and their remote peers. Physical pipes are excluded: the NM
	// cannot create or delete them.
	pipes map[core.PipeID]obsPipe
	// rules lists installed switch rules across the device's modules.
	rules []obsRule

	// The remaining fields are the diff's binding indexes, lazily built
	// by ensureIndex (storestate.go); a bare observed as observe() or a
	// test constructs it carries none of them.

	// claimed marks observed pipes that are spoken for: bound to a desired
	// union pipe, or queued for deletion.
	claimed map[core.PipeID]bool
	// usedIDs holds the wire ids handed out for the device since the last
	// rematch; with the observed ids they are what allocPipeID skips.
	usedIDs map[core.PipeID]bool
	// ruleIdx indexes rules by binding identity (obsRule.key) and
	// ruleByID by installed id; tombstoned rules (id=="") are unindexed.
	ruleIdx  map[string][]int
	ruleByID map[string]int
}

type obsPipe struct {
	upper, lower         core.ModuleRef
	upperPeer, lowerPeer core.ModuleRef
}

// matches reports whether the observed pipe satisfies a desired pipe
// request: same modules AND same remote peers — a pipe whose far-end
// peer changed must be recreated so the modules renegotiate (VID,
// keys, labels) with the new peer.
func (o obsPipe) matches(req core.PipeRequest) bool {
	return o.upper == req.Upper && o.lower == req.Lower &&
		o.upperPeer == req.UpperPeer && o.lowerPeer == req.LowerPeer
}

type obsRule struct {
	id       string
	module   core.ModuleRef
	from, to core.PipeID
	match    string
	via      string
	// matchResolved/viaResolved are the concrete values the rule was
	// installed with; a rule whose fresh resolution differs has drifted
	// and must be replaced even though its abstract form still matches.
	matchResolved string
	viaResolved   string
	// handle is the low-level handle the rule embeds from the module
	// below its To pipe (core.CanonicalHandle form), as the installing
	// module reported it; stale handles force replacement (§II-E).
	handle string
	used   bool
}

func classifierKey(c *core.Classifier) string {
	if c == nil {
		return ""
	}
	return c.Kind + "=" + c.Value
}

// observe fetches showActual for every device and condenses it into the
// diffable view. Devices are queried on the NM's worker pool. Devices in
// the optional set (stranded: previously touched, off every current
// path) may fail to answer — a killed device must not wedge
// reconciliation of the survivors — and are returned as unreachable
// with no entry in the map.
func (n *NM) observe(devs []core.DeviceID, optional map[core.DeviceID]bool) (map[core.DeviceID]*observed, []core.DeviceID, error) {
	out := make([]*observed, len(devs))
	unreach := make([]bool, len(devs))
	err := n.forEach(len(devs), func(i int) error {
		states, err := n.ShowActual(devs[i])
		if err != nil {
			if optional[devs[i]] {
				unreach[i] = true
				return nil
			}
			return err
		}
		o := &observed{pipes: make(map[core.PipeID]obsPipe)}
		for _, st := range states {
			for _, ps := range st.Pipes {
				// The module below a pipe reports it as an up pipe (Other
				// = the module above, Peer = its own remote peer); the
				// module above reports the same pipe as a down pipe
				// carrying the upper-side peer. Physical pipes are not
				// diffable.
				switch ps.End {
				case core.EndUp:
					op := o.pipes[ps.ID]
					op.upper, op.lower, op.lowerPeer = ps.Other, st.Ref, ps.Peer
					o.pipes[ps.ID] = op
				case core.EndDown:
					op := o.pipes[ps.ID]
					op.upperPeer = ps.Peer
					o.pipes[ps.ID] = op
				}
			}
			for _, r := range st.SwitchRules {
				o.rules = append(o.rules, obsRule{
					id: r.ID, module: st.Ref,
					from: r.From, to: r.To,
					match: classifierKey(r.Match), via: r.Via,
					matchResolved: r.MatchResolved, viaResolved: r.ViaResolved,
					handle: r.HandleResolved,
				})
			}
		}
		out[i] = o
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	m := make(map[core.DeviceID]*observed, len(devs))
	var unreachable []core.DeviceID
	for i, d := range devs {
		if unreach[i] {
			unreachable = append(unreachable, d)
			continue
		}
		m[d] = out[i]
	}
	sort.Slice(unreachable, func(i, j int) bool { return unreachable[i] < unreachable[j] })
	return m, unreachable, nil
}

// optionalSet builds the observe() optional set from a stranded list.
func optionalSet(stranded []core.DeviceID) map[core.DeviceID]bool {
	if len(stranded) == 0 {
		return nil
	}
	set := make(map[core.DeviceID]bool, len(stranded))
	for _, d := range stranded {
		set[d] = true
	}
	return set
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
// than the cache. Other registered intents stay in the union: their
// components on shared devices are not stale. Planning sends no
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
