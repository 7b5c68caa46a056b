package nm

import (
	"cmp"
	"slices"

	"conman/internal/core"
)

// Dependency maintenance for embedded low-level handles (§II-E). Some
// modules export low-level fields through listFieldsAndValues that a
// module above embeds verbatim into its own configuration — the MPLS
// module's NHLFE key, consumed by the IP module's classified-ingress
// route. The embedded copy is invisible to the abstract diff: if the
// provider recreates the component (pipe churn regenerates the key), a
// kept consumer rule silently points at state that no longer exists.
//
// showActual reports both sides — each exporter's handle on its up pipe
// (PipeState.Handle) and each rule's copy (HandleResolved) — and so do a
// create batch's results. The diff replaces a rule whose copy differs
// from its To pipe's (bindRule), and Apply installs a trigger on each
// provider component a kept or just-installed rule embeds from, so the
// provider's fieldsChanged marks the dependent intents dirty.

// handleDep is one (provider module, component) pair some installed
// switch rule embeds a handle from.
type handleDep struct {
	provider  core.ModuleRef
	component string
}

// installHandleTriggers registers a trigger for each handle dependency,
// once each, in a fixed order (ensureTrigger keeps repeats quiet).
func (n *NM) installHandleTriggers(deps []handleDep) error {
	slices.SortFunc(deps, func(a, b handleDep) int {
		if c := cmp.Compare(a.provider.String(), b.provider.String()); c != 0 {
			return c
		}
		return cmp.Compare(a.component, b.component)
	})
	for _, d := range slices.Compact(deps) {
		if err := n.ensureTrigger(d.provider, d.component); err != nil {
			return err
		}
	}
	return nil
}

// markStale updates the NM's memory of devices whose state could not be
// observed (killed or partitioned): pruned devices were reached and
// cleaned this pass, unreachable ones are remembered so later plans keep
// trying to prune them when they come back.
func (n *NM) markStale(pruned, unreachable []core.DeviceID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, d := range pruned {
		delete(n.staleDevs, d)
	}
	for _, d := range unreachable {
		n.staleDevs[d] = true
	}
}
